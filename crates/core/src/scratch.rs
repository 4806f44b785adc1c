//! Per-thread stage scratch shared by every compact-scheme engine.
//!
//! Both sequential engines — the float [`crate::CompactEngine`] and the
//! quantized `tie_sim::QuantizedEngine` — run their `d` stage GEMMs
//! against a ping-pong pair of buffers. Those buffers belong to the
//! calling thread, not to the engine: the engines themselves stay
//! immutable after construction, so a serving worker shares them behind
//! `Arc` instead of copying them, and scratch memory grows with the
//! number of threads, not with engines × threads.
//!
//! # Retention
//!
//! A thread keeps one scratch value per type (for example one
//! `f64` workspace and one `i16` workspace). Each grows to the largest
//! `max_stage_input_elems × batch` any engine has asked of it on that
//! thread and is never shrunk; it is freed when the thread exits. A
//! serving worker therefore holds at most one pair per scalar type, sized
//! by its largest layer and batch, for the life of the service.

use std::any::Any;
use std::cell::RefCell;

thread_local! {
    /// This thread's scratch values, at most one per type.
    static SLOTS: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the calling thread's scratch value of type `W`, creating
/// it with `W::default()` on first use. A nested call on the same thread
/// (an engine run inside another engine's run) gets a fresh temporary
/// value instead, so re-entry is correct, merely not allocation-free.
pub fn with_thread_scratch<W: Default + 'static, R>(f: impl FnOnce(&mut W) -> R) -> R {
    SLOTS.with(|cell| {
        let Ok(mut slots) = cell.try_borrow_mut() else {
            return f(&mut W::default());
        };
        let idx = match slots.iter().position(|w| w.is::<W>()) {
            Some(idx) => idx,
            None => {
                slots.push(Box::new(W::default()));
                slots.len() - 1
            }
        };
        let ws = slots[idx]
            .downcast_mut::<W>()
            .expect("slot was matched by type");
        f(ws)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_value_per_type_per_thread() {
        with_thread_scratch(|v: &mut Vec<u8>| v.resize(64, 1));
        with_thread_scratch(|v: &mut Vec<u16>| v.resize(8, 2));
        assert_eq!(with_thread_scratch(|v: &mut Vec<u8>| v.len()), 64);
        assert_eq!(with_thread_scratch(|v: &mut Vec<u16>| v.len()), 8);
        SLOTS.with(|s| assert_eq!(s.borrow().len(), 2));
        // Another thread starts from nothing.
        let other = std::thread::spawn(|| with_thread_scratch(|v: &mut Vec<u8>| v.len()));
        assert_eq!(other.join().unwrap(), 0);
    }

    #[test]
    fn scratch_is_freed_when_its_thread_exits() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        #[derive(Default)]
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::SeqCst);
            }
        }
        std::thread::spawn(|| with_thread_scratch(|_: &mut Tracked| ()))
            .join()
            .unwrap();
        assert_eq!(DROPPED.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_call_gets_a_temporary_value() {
        let inner = with_thread_scratch(|outer: &mut Vec<u32>| {
            outer.push(7);
            with_thread_scratch(|v: &mut Vec<u32>| v.len())
        });
        assert_eq!(inner, 0);
        assert_eq!(with_thread_scratch(|v: &mut Vec<u32>| v.clone()), vec![7]);
    }
}
