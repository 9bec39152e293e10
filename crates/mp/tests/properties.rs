//! Property-based tests of the message-passing machine.

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

use wwt_mp::{MpConfig, MpMachine, TreeShape};
use wwt_sim::{Counter, Engine, ProcId, SimConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A channel transfers any message byte-exactly, regardless of length
    /// (packet-boundary straddles included).
    #[test]
    fn channel_transfers_any_payload(len_words in 1usize..200, seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let vals: Vec<f64> = (0..len_words).map(|_| rng.gen_range(-1e12..1e12)).collect();
        let bytes = (len_words * 8) as u32;

        let mut e = Engine::new(2, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let src = m.alloc(ProcId::new(0), bytes as u64, 32);
        let dst = m.alloc(ProcId::new(1), bytes as u64, 32);
        m.poke_f64s(ProcId::new(0), src, &vals);
        let m0 = Rc::clone(&m);
        let c0 = e.cpu(ProcId::new(0));
        e.spawn(ProcId::new(0), async move {
            let ch = m0.channel_bind(&c0, ProcId::new(1)).await;
            m0.channel_write(&c0, &ch, src, bytes);
        });
        let m1 = Rc::clone(&m);
        let c1 = e.cpu(ProcId::new(1));
        e.spawn(ProcId::new(1), async move {
            let id = m1.channel_open_recv(&c1, ProcId::new(0), dst, bytes).expect("capacity within the channel limit");
            let got = m1.channel_wait(&c1, id).await;
            assert_eq!(got, bytes);
        });
        let r = e.run();
        let mut got = vec![0.0f64; len_words];
        m.peek_f64s(ProcId::new(1), dst, &mut got);
        for (a, b) in vals.iter().zip(&got) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // Data-byte accounting is exact.
        prop_assert_eq!(
            r.proc(ProcId::new(0)).counters.get(Counter::BytesData),
            bytes as u64
        );
    }

    /// Reductions compute the exact max over any machine size, shape, and
    /// root, with the correct owner.
    #[test]
    fn reduce_max_is_exact(
        n in 2usize..12,
        root_sel in 0usize..12,
        seed in 0u64..1000,
        shape_sel in 0usize..3,
    ) {
        use rand::{Rng, SeedableRng};
        let root = root_sel % n;
        let shape = [TreeShape::Flat, TreeShape::Binary, TreeShape::Lopsided][shape_sel];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let vals: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let expect = vals
            .iter()
            .cloned()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();

        let mut e = Engine::new(n, SimConfig::default());
        let m = MpMachine::new(&e, MpConfig::default());
        let result: Rc<RefCell<Option<(f64, usize)>>> = Rc::default();
        for p in e.proc_ids() {
            let m = Rc::clone(&m);
            let cpu = e.cpu(p);
            let result = Rc::clone(&result);
            let v = vals[p.index()];
            e.spawn(p, async move {
                if let Some(r) = m.reduce_max_f64_index(&cpu, shape, root, v, p.index()).await {
                    *result.borrow_mut() = Some(r);
                }
                m.barrier(&cpu).await;
            });
        }
        e.run();
        let (got_v, got_i) = result.borrow().expect("root sees the result");
        prop_assert_eq!(got_v, expect.1);
        prop_assert_eq!(got_i, expect.0);
    }
}
