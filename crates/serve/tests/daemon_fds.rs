//! A daemon holds no descriptor for a connection that has ended: many
//! short sessions in a row leave its descriptor table where it was.
//! Alone in its test binary, so no other test's sockets move the count.

#![cfg(target_os = "linux")]

use bitgen_serve::{serve_unix, Client, ScanService, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn ping(socket: &Path) {
    let mut stream = UnixStream::connect(socket).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(b"PING\n").unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    assert_eq!(reply, "OK\n");
}

#[test]
fn sequential_connections_leave_no_descriptors_behind() {
    let socket = std::env::temp_dir().join(format!("bitgen-fds-{}.sock", std::process::id()));
    let path = socket.clone();
    let server =
        std::thread::spawn(move || serve_unix(&path, ScanService::start(ServeConfig::default())));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(Duration::from_millis(2));
    }
    ping(&socket);
    let before = open_descriptors();
    for _ in 0..200 {
        ping(&socket);
    }
    // The last handlers see their EOF; nothing more is accepted.
    std::thread::sleep(Duration::from_millis(200));
    let after = open_descriptors();
    assert!(after < before + 20, "200 ended connections left {} descriptors", after - before);

    Client::connect(&socket).unwrap().shutdown().unwrap();
    server.join().unwrap().unwrap();
}
