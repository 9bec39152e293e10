//! A heap-avoiding `FnOnce()` container for scheduled simulator actions.
//!
//! Every coherence transaction, message delivery, and replacement hint
//! schedules a callback through [`crate::Sim::call_at`]. Boxing each
//! closure put tens of millions of 32–40 byte heap allocations on the
//! paper-scale runs' hot path; allocator time alone was close to a
//! quarter of wall clock.
//! [`SmallCall`] stores closures of up to [`INLINE_BYTES`] captured bytes
//! inline in the event entry itself and falls back to `Box` only for
//! larger captures, so the common case allocates nothing.

use std::fmt;
use std::mem::{align_of, size_of, MaybeUninit};

/// Inline capture budget, in bytes. The hot callbacks capture an
/// `Rc<Machine>`, a block address, a completion cell, and a couple of
/// scalars — comfortably under this; anything bigger is boxed.
pub const INLINE_BYTES: usize = 48;

/// Inline storage measured in `u64` words, which also fixes its
/// alignment: closures aligned stricter than `u64` take the boxed path.
const WORDS: usize = INLINE_BYTES / 8;

// The inline buffer plus one thunk pointer: a scheduled `Action` is 56
// bytes, so a calendar slot entry `(seq, Action)` fills one 64-byte line.
const _: () = assert!(size_of::<crate::event::Action>() == 56);

/// A type-erased `FnOnce() + 'static` with inline storage for small
/// captures (the small-closure analogue of small-string optimization).
///
/// Closures whose captures fit [`INLINE_BYTES`] and are at most
/// `u64`-aligned live directly in the struct; larger or stricter-aligned
/// ones are boxed transparently. The closure runs at most once: running
/// it ([`SmallCall::invoke`], [`SmallCall::invoke_in_place`], or the
/// engine's run from a calendar node) first takes it out of the
/// container, which leaves an inert `SmallCall` whose drop does nothing.
/// A `SmallCall` dropped with its closure still in it (e.g. a queue torn
/// down mid-run) drops the closure unrun.
pub struct SmallCall {
    data: [MaybeUninit<u64>; WORDS],
    /// Consumes the closure in `data`: runs it when `run` is true, drops
    /// it unrun otherwise. `op_inert` once the closure was taken out.
    op: unsafe fn(*mut u64, bool),
}

impl SmallCall {
    /// Wraps `f`, storing its captures inline when they fit.
    pub fn new<F: FnOnce() + 'static>(f: F) -> Self {
        let mut data: [MaybeUninit<u64>; WORDS] = [MaybeUninit::uninit(); WORDS];
        if size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= align_of::<u64>() {
            wwt_obs::count(wwt_obs::Ctr::SimCallInline, 1);
            // SAFETY: F fits the storage in both size and alignment
            // (checked above), and the storage is uninitialized.
            unsafe { (data.as_mut_ptr() as *mut F).write(f) };
            SmallCall {
                data,
                op: op_inline::<F>,
            }
        } else {
            wwt_obs::count(wwt_obs::Ctr::SimCallBoxed, 1);
            // Large capture: store one raw Box pointer inline instead.
            // SAFETY: a thin pointer always fits the first word.
            unsafe { (data.as_mut_ptr() as *mut *mut F).write(Box::into_raw(Box::new(f))) };
            SmallCall {
                data,
                op: op_boxed::<F>,
            }
        }
    }

    /// Runs the closure, consuming the container.
    pub fn invoke(mut self) {
        self.invoke_in_place();
    }

    /// Runs the closure from where it is stored, leaving this container
    /// inert. Does nothing if the closure was already taken out.
    pub fn invoke_in_place(&mut self) {
        let taken = self.take();
        // SAFETY: `self` stays mutably borrowed until the thunk returns,
        // so nothing writes, moves or frees the storage it reads from.
        unsafe { taken.run() }
    }

    /// Whether the closure was taken out, so dropping or overwriting this
    /// container releases nothing.
    pub(crate) fn is_inert(&self) -> bool {
        std::ptr::fn_addr_eq(self.op, op_inert as unsafe fn(*mut u64, bool))
    }

    /// Takes the closure out of the container and leaves an inert one in
    /// its place, whose drop does nothing. The closure's bytes stay in
    /// this container's storage until the returned [`Taken`] runs them.
    pub(crate) fn take(&mut self) -> Taken {
        Taken {
            op: std::mem::replace(&mut self.op, op_inert),
            data: self.data.as_mut_ptr() as *mut u64,
        }
    }
}

impl Drop for SmallCall {
    fn drop(&mut self) {
        // SAFETY: `op` is the thunk `new` stored, whose closure is still
        // live in `data`, or `op_inert` once `take` moved it out.
        unsafe { (self.op)(self.data.as_mut_ptr() as *mut u64, false) }
    }
}

/// A closure taken out of a [`SmallCall`] by [`SmallCall::take`]: its thunk
/// and the address of the storage the thunk moves the closure out of.
/// Dropping a `Taken` unrun leaks the closure's captures.
#[must_use = "dropping a taken closure unrun leaks its captures"]
pub(crate) struct Taken {
    op: unsafe fn(*mut u64, bool),
    data: *mut u64,
}

impl Taken {
    /// Moves the closure out of its storage and runs it. The storage is
    /// read before the closure starts, so the closure may overwrite or
    /// free it.
    ///
    /// # Safety
    ///
    /// Nothing has written, moved or freed the `SmallCall` this was taken
    /// from since [`SmallCall::take`].
    pub(crate) unsafe fn run(self) {
        // SAFETY: the caller guarantees the storage still holds the closure
        // `take` left there; `take` made the container inert, so this is
        // the closure's only consumer.
        unsafe { (self.op)(self.data, true) }
    }
}

impl fmt::Debug for SmallCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SmallCall(..)")
    }
}

/// Moves the inline closure out of `p`, then runs it or drops it unrun.
///
/// # Safety
///
/// `p` points at storage holding a live `F`, written by
/// [`SmallCall::new`], which this call moves out before it runs it.
unsafe fn op_inline<F: FnOnce()>(p: *mut u64, run: bool) {
    // SAFETY: the caller guarantees a live `F` at `p`, read exactly once.
    let f = unsafe { (p as *mut F).read() };
    if run {
        f();
    }
}

/// Takes back the boxed closure whose pointer is stored at `p`, then runs
/// it or drops it unrun.
///
/// # Safety
///
/// `p` points at storage holding a live `*mut F` from `Box::into_raw`,
/// written by [`SmallCall::new`], which is never touched again after this
/// call.
unsafe fn op_boxed<F: FnOnce()>(p: *mut u64, run: bool) {
    // SAFETY: the caller guarantees a live `Box::into_raw` pointer at `p`,
    // reclaimed exactly once.
    let b = unsafe { Box::from_raw((p as *mut *mut F).read()) };
    if run {
        (*b)();
    }
}

/// The thunk of a `SmallCall` whose closure was taken out: nothing left
/// to run or drop.
unsafe fn op_inert(_: *mut u64, _: bool) {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn small_closure_runs_inline() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        let call = SmallCall::new(move || l.borrow_mut().push(1u64));
        call.invoke();
        assert_eq!(*log.borrow(), vec![1]);
    }

    #[test]
    fn large_closure_falls_back_to_box() {
        let log = Rc::new(RefCell::new(0u64));
        let l = Rc::clone(&log);
        let payload = [7u64; 16]; // 128 bytes of captures: > INLINE_BYTES
        let call = SmallCall::new(move || *l.borrow_mut() = payload.iter().sum());
        call.invoke();
        assert_eq!(*log.borrow(), 7 * 16);
    }

    #[test]
    fn unconsumed_closures_drop_their_captures() {
        let rc = Rc::new(());
        let small = SmallCall::new({
            let rc = Rc::clone(&rc);
            move || drop(rc)
        });
        let big_payload = [0u64; 16];
        let large = SmallCall::new({
            let rc = Rc::clone(&rc);
            move || {
                drop(rc);
                let _ = big_payload;
            }
        });
        assert_eq!(Rc::strong_count(&rc), 3);
        drop(small);
        drop(large);
        assert_eq!(Rc::strong_count(&rc), 1);
    }

    #[test]
    fn zero_sized_closures_work() {
        SmallCall::new(|| {}).invoke();
    }
}
