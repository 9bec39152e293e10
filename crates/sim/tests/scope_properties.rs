//! Property test of cost attribution: random nested scope guards
//! interleaved with every charging entry point, checked against a
//! reference that keeps an explicit scope stack per processor.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use wwt_sim::{CycleMatrix, Cycles, Engine, Kind, ProcId, Scope, SimConfig};

const NPROCS: usize = 2;

/// The reference accounting of one processor.
#[derive(Default)]
struct Model {
    stack: Vec<Scope>,
    matrix: CycleMatrix,
    clock: Cycles,
}

impl Model {
    fn scope(&self) -> Scope {
        self.stack.last().copied().unwrap_or(Scope::App)
    }

    fn charge(&mut self, kind: Kind, cycles: Cycles) {
        self.matrix.add(self.scope(), kind, cycles);
        self.clock += cycles;
    }
}

/// Runs one program per processor, each a list of `(op, arg, cycles)`:
/// enter a scope, leave the innermost one, `Cpu::charge`, `Cpu::compute`,
/// `Sim::charge_callback` to either processor, or a resync that lets the
/// other processor run. Checks the current scope after every step and
/// each processor's matrix and clock at the end; with a profile bucket,
/// also that the buckets sum to the matrix.
fn check(programs: Vec<Vec<(u32, usize, Cycles)>>, bucket: Option<Cycles>) {
    let config = SimConfig {
        profile_bucket: bucket,
        ..SimConfig::default()
    };
    let mut e = Engine::new(NPROCS, config);
    let models: Rc<RefCell<Vec<Model>>> = Rc::new(RefCell::new(
        (0..NPROCS).map(|_| Model::default()).collect(),
    ));
    for (p, program) in e.proc_ids().zip(programs) {
        let cpu = e.cpu(p);
        let models = Rc::clone(&models);
        e.spawn(p, async move {
            let me = p.index();
            let mut guards = Vec::new();
            for (op, arg, cycles) in program {
                let kind = Kind::ALL[arg % Kind::ALL.len()];
                match op {
                    0 => {
                        let scope = Scope::ALL[arg % Scope::ALL.len()];
                        guards.push(cpu.scope(scope));
                        models.borrow_mut()[me].stack.push(scope);
                    }
                    1 => {
                        drop(guards.pop());
                        models.borrow_mut()[me].stack.pop();
                    }
                    2 => {
                        cpu.charge(kind, cycles);
                        models.borrow_mut()[me].charge(kind, cycles);
                    }
                    3 => {
                        cpu.compute(cycles);
                        models.borrow_mut()[me].charge(Kind::Compute, cycles);
                    }
                    4 => {
                        let to = arg % NPROCS;
                        cpu.sim().charge_callback(ProcId::new(to), kind, cycles);
                        models.borrow_mut()[to].charge(kind, cycles);
                    }
                    _ => {
                        cpu.resync().await;
                    }
                }
                assert_eq!(cpu.current_scope(), models.borrow()[me].scope());
            }
            // Guards must drop innermost first; a `Vec` drops front first.
            while let Some(g) = guards.pop() {
                drop(g);
                models.borrow_mut()[me].stack.pop();
            }
        });
    }
    let r = e.run();
    for (i, model) in models.borrow().iter().enumerate() {
        let got = r.proc(ProcId::new(i));
        assert_eq!(got.matrix, model.matrix, "P{i} matrix");
        assert_eq!(got.clock, model.clock, "P{i} clock");
        if bucket.is_some() {
            let mut sum = CycleMatrix::new();
            for m in &got.profile {
                sum.merge(m);
            }
            assert_eq!(sum, got.matrix, "P{i} profile buckets sum to the matrix");
        } else {
            assert!(got.profile.is_empty());
        }
    }
}

proptest! {
    #[test]
    fn nested_scopes_attribute_every_charge(
        a in proptest::collection::vec((0u32..6, 0usize..64, 0u64..400), 0..80),
        b in proptest::collection::vec((0u32..6, 0usize..64, 0u64..400), 0..80),
        width in 1u64..500,
    ) {
        check(vec![a.clone(), b.clone()], None);
        check(vec![a, b], Some(width));
    }
}
