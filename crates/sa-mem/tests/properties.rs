//! Property tests for the single-assignment memory substrate.

use proptest::prelude::*;

use sa_mem::{SaArray, SaError, TagBits};

proptest! {
    /// For any sequence of writes, exactly the first write to each index
    /// succeeds and the value read back is that first value.
    #[test]
    fn first_write_wins_everywhere(
        len in 1usize..128,
        writes in prop::collection::vec((0usize..128, -1e6f64..1e6), 1..300),
    ) {
        let mut a = SaArray::new("A", len);
        let mut model: Vec<Option<f64>> = vec![None; len];
        let mut defined = 0usize;
        for (i, v) in writes {
            let r = a.write(i % len, v);
            let slot = &mut model[i % len];
            match slot {
                None => {
                    prop_assert!(r.is_ok());
                    *slot = Some(v);
                    defined += 1;
                }
                Some(_) => {
                    let is_double_write = matches!(r, Err(SaError::DoubleWrite { .. }));
                    prop_assert!(is_double_write);
                }
            }
        }
        prop_assert_eq!(a.defined_count(), defined);
        for (i, want) in model.iter().enumerate() {
            prop_assert_eq!(a.read(i).unwrap().copied(), *want);
        }
    }

    /// Tag bitmaps agree with a boolean-vector model under arbitrary
    /// set/clear/union operations.
    #[test]
    fn tagbits_matches_model(
        len in 1usize..300,
        sets in prop::collection::vec(0usize..300, 0..400),
    ) {
        let mut t = TagBits::new(len);
        let mut model = vec![false; len];
        for s in sets {
            let i = s % len;
            let prev = t.set(i);
            prop_assert_eq!(prev, model[i]);
            model[i] = true;
        }
        prop_assert_eq!(t.count_ones(), model.iter().filter(|&&b| b).count());
        for (i, &m) in model.iter().enumerate() {
            prop_assert_eq!(t.get(i), m);
        }
        prop_assert_eq!(t.first_unset(), model.iter().position(|&b| !b));
        let collected: Vec<usize> = t.iter_set().collect();
        let expect: Vec<usize> =
            model.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        prop_assert_eq!(collected, expect);
    }

    /// Re-initialization makes every cell writable exactly once more and
    /// bumps the generation each time.
    #[test]
    fn reinit_generations(rounds in 1u32..6, len in 1usize..64) {
        let mut a = SaArray::new("A", len);
        for g in 0..rounds {
            prop_assert_eq!(a.generation(), g);
            for i in 0..len {
                a.write(i, g as f64).unwrap();
            }
            prop_assert!(a.is_fully_defined());
            prop_assert!(a.write(0, 9.9).is_err());
            a.reinit();
        }
        prop_assert_eq!(a.generation(), rounds);
        prop_assert_eq!(a.defined_count(), 0);
    }
}
