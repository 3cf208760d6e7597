//! Property tests: `BitStream` operations against a `Vec<bool>` model,
//! transposition round trips, and class circuits against their sets.

use bitgen_bitstream::{compile_class, Basis, BitStream, ClassCircuit};
use bitgen_regex::ByteSet;
use proptest::prelude::*;

/// Reference model: a plain vector of bits.
#[derive(Debug, Clone)]
struct Model(Vec<bool>);

impl Model {
    fn to_stream(&self) -> BitStream {
        let mut s = BitStream::zeros(self.0.len());
        for (i, &b) in self.0.iter().enumerate() {
            if b {
                s.set(i, true);
            }
        }
        s
    }

    fn advance(&self, k: usize) -> Model {
        let n = self.0.len();
        Model((0..n).map(|i| i >= k && self.0[i - k]).collect())
    }

    fn retreat(&self, k: usize) -> Model {
        let n = self.0.len();
        Model((0..n).map(|i| i + k < n && self.0[i + k]).collect())
    }

    fn add(&self, other: &Model) -> Model {
        let mut out = vec![false; self.0.len()];
        let mut carry = false;
        for (o, (&x, &y)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            let sum = x as u8 + y as u8 + carry as u8;
            *o = sum & 1 == 1;
            carry = sum >= 2;
        }
        Model(out)
    }
}

fn arb_model(max_len: usize) -> impl Strategy<Value = Model> {
    prop::collection::vec(any::<bool>(), 0..max_len).prop_map(Model)
}

/// Byte classes of the shapes rule sets produce: single bytes, ranges,
/// scattered sets, their complements, the empty and the full class.
fn arb_class() -> impl Strategy<Value = ByteSet> {
    let base = prop_oneof![
        any::<u8>().prop_map(ByteSet::singleton),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| ByteSet::range(a.min(b), a.max(b))),
        prop::collection::vec(any::<u8>(), 0..12).prop_map(ByteSet::from_bytes),
    ];
    (base, any::<bool>()).prop_map(|(set, negate)| if negate { set.complement() } else { set })
}

fn arb_pair(max_len: usize) -> impl Strategy<Value = (Model, Model)> {
    (0usize..max_len)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(any::<bool>(), n),
                prop::collection::vec(any::<bool>(), n),
            )
        })
        .prop_map(|(a, b)| (Model(a), Model(b)))
}

proptest! {
    #[test]
    fn boolean_ops_match_model((a, b) in arb_pair(300)) {
        let (sa, sb) = (a.to_stream(), b.to_stream());
        let n = a.0.len();
        for i in 0..n {
            prop_assert_eq!(sa.and(&sb).get(i), a.0[i] && b.0[i]);
            prop_assert_eq!(sa.or(&sb).get(i), a.0[i] || b.0[i]);
            prop_assert_eq!(sa.xor(&sb).get(i), a.0[i] ^ b.0[i]);
            prop_assert_eq!(sa.and_not(&sb).get(i), a.0[i] && !b.0[i]);
            prop_assert_eq!(sa.not().get(i), !a.0[i]);
        }
    }

    #[test]
    fn shifts_match_model(m in arb_model(300), k in 0usize..128) {
        let s = m.to_stream();
        prop_assert_eq!(s.advance(k), m.advance(k).to_stream());
        prop_assert_eq!(s.retreat(k), m.retreat(k).to_stream());
    }

    #[test]
    fn add_matches_model((a, b) in arb_pair(300)) {
        prop_assert_eq!(a.to_stream().add(&b.to_stream()), a.add(&b).to_stream());
    }

    #[test]
    fn add_is_commutative((a, b) in arb_pair(200)) {
        let (sa, sb) = (a.to_stream(), b.to_stream());
        prop_assert_eq!(sa.add(&sb), sb.add(&sa));
    }

    #[test]
    fn advance_composes(m in arb_model(256), a in 0usize..60, b in 0usize..60) {
        let s = m.to_stream();
        prop_assert_eq!(s.advance(a).advance(b), s.advance(a + b));
        prop_assert_eq!(s.retreat(a).retreat(b), s.retreat(a + b));
    }

    #[test]
    fn slice_reads_the_source_bits(m in arb_model(256), start in 0usize..100, len in 1usize..100) {
        let s = m.to_stream();
        let window = s.slice(start, len);
        // Every window bit corresponds to the source bit.
        for i in 0..len {
            let src = start + i;
            let expect = src < s.len() && s.get(src);
            prop_assert_eq!(window.get(i), expect);
        }
    }

    #[test]
    fn positions_round_trip(m in arb_model(400)) {
        let s = m.to_stream();
        let back = BitStream::from_positions(s.len(), &s.positions());
        prop_assert_eq!(back, s);
    }

    #[test]
    fn count_matches_positions(m in arb_model(400)) {
        let s = m.to_stream();
        prop_assert_eq!(s.count_ones(), s.positions().len());
        prop_assert_eq!(s.any(), !s.positions().is_empty());
    }

    #[test]
    fn transpose_round_trips(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let basis = Basis::transpose(&bytes);
        prop_assert_eq!(basis.untranspose(), bytes);
    }

    #[test]
    fn longest_run_matches_model(m in arb_model(300)) {
        let mut best = 0usize;
        let mut cur = 0usize;
        for &b in &m.0 {
            if b { cur += 1; best = best.max(cur); } else { cur = 0; }
        }
        prop_assert_eq!(m.to_stream().longest_run(), best);
    }

    #[test]
    fn shared_circuits_compute_every_class_however_they_are_grouped(
        classes in prop::collection::vec(arb_class(), 0..24),
        picks in prop::collection::vec(any::<bool>(), 24),
    ) {
        // Position b of the basis holds byte b: a class stream is its
        // class's truth table, whatever else the circuit was built for.
        let every_byte: Vec<u8> = (0..=255).collect();
        let basis = Basis::transpose(&every_byte);
        let subset: Vec<ByteSet> =
            classes.iter().zip(&picks).filter(|(_, &pick)| pick).map(|(c, _)| *c).collect();
        for together in [&classes, &subset] {
            let circuit = ClassCircuit::for_classes(together);
            let mut streams = vec![BitStream::zeros(257); together.len()];
            circuit.eval_into(&basis, &mut streams);
            let mut alone = BitStream::zeros(257);
            let mut gates_alone = 0;
            for (class, stream) in together.iter().zip(&streams) {
                for byte in 0..=255u8 {
                    let got = stream.get(usize::from(byte));
                    prop_assert_eq!(got, class.contains(byte), "{:?}", class);
                }
                prop_assert!(!stream.get(256), "peek bit of {:?}", class);
                ClassCircuit::for_classes(std::slice::from_ref(class))
                    .eval_into(&basis, std::slice::from_mut(&mut alone));
                prop_assert_eq!(&alone, stream, "{:?} compiled alone", class);
                gates_alone += compile_class(class).gate_count();
            }
            let shared = circuit.gate_count();
            prop_assert!(shared <= gates_alone, "{} shared, {} alone", shared, gates_alone);
        }
    }
}
