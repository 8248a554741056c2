//! Architectural interpreter with checkpoint/rollback.

use crate::{Inst, MemMark, Program, Reg, SparseMemory};
use std::collections::VecDeque;

/// What a single [`Machine::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An ALU or immediate instruction retired.
    Alu,
    /// A load from `addr` retired.
    Load {
        /// Word address read.
        addr: u32,
    },
    /// A store to `addr` retired.
    Store {
        /// Word address written.
        addr: u32,
    },
    /// A conditional branch executed.
    Branch {
        /// Architecturally correct direction (what the condition evaluated
        /// to), regardless of any forced direction.
        taken: bool,
        /// Direction the machine actually followed (differs from `taken`
        /// only under [`Machine::step_forced`]).
        followed: bool,
        /// Taken-path target instruction index.
        target: u32,
    },
    /// An unconditional jump executed.
    Jump {
        /// Target instruction index.
        target: u32,
    },
    /// A call executed (wrote `ra`).
    Call {
        /// Target instruction index.
        target: u32,
    },
    /// A return executed.
    Ret {
        /// Target instruction index (the value of `ra`).
        target: u32,
    },
    /// The machine halted (or was already halted).
    Halt,
    /// A `nop` retired.
    Nop,
    /// The PC points outside the program; no state changed. This only
    /// happens on wrong paths (e.g. returning through a clobbered `ra`);
    /// the pipeline stalls fetch until misprediction recovery rewinds it.
    OutOfRange,
}

/// Architectural snapshot position, used for wrong-path recovery.
///
/// Captured by [`Machine::checkpoint`] before following a predicted branch
/// direction; [`Machine::restore`] rewinds registers, PC and (via the
/// register and memory undo logs) all speculative writes.
///
/// A checkpoint is a pair of undo-log positions plus the PC, not a copy of
/// machine state: taking one is O(1) and a few dozen bytes, which is what
/// lets the pipeline checkpoint *every* predicted branch without the
/// per-branch register-file copy dominating simulation time. The cost moves
/// to an O(1) log append per register write, and restore replays the log
/// backwards — exactly like the memory undo log.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    reg_mark: u64,
    pc: u32,
    halted: bool,
    mem: MemMark,
}

impl Checkpoint {
    /// PC at which the checkpoint was taken.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Memory undo-log position of the checkpoint.
    pub fn mem_mark(&self) -> MemMark {
        self.mem
    }
}

/// The architectural machine: registers, PC, and data memory.
///
/// `Machine` executes instructions *architecturally* — one call to
/// [`step`](Machine::step) fully executes one instruction. Timing is the
/// pipeline simulator's job. The split is what enables the paper's
/// "execute-at-decode" methodology: the pipeline calls
/// [`step_forced`](Machine::step_forced) to follow the *predicted* direction
/// of a branch while learning the *actual* direction from the returned
/// [`Step::Branch`], and uses [`checkpoint`](Machine::checkpoint) /
/// [`restore`](Machine::restore) to rewind wrong paths.
#[derive(Debug, Clone)]
pub struct Machine {
    regs: [u32; Reg::COUNT],
    pc: u32,
    halted: bool,
    mem: SparseMemory,
    /// Register undo log: `(register index, overwritten value)` per write,
    /// mirroring the memory undo log in [`SparseMemory`]. Checkpoints
    /// record a position; restore pops back to it, commit releases from
    /// the front.
    reg_undo: VecDeque<(u32, u32)>,
    reg_undo_base: u64,
}

impl Machine {
    /// Creates a machine with the program's data image loaded and the PC at
    /// the entry point.
    pub fn new(program: &Program) -> Machine {
        let mut mem = SparseMemory::new();
        for block in program.data() {
            for (i, &w) in block.words.iter().enumerate() {
                mem.write_init(block.base.wrapping_add(i as u32), w);
            }
        }
        Machine {
            regs: [0; Reg::COUNT],
            pc: program.entry(),
            halted: false,
            mem,
            reg_undo: VecDeque::new(),
            reg_undo_base: 0,
        }
    }

    /// Current program counter (instruction index).
    #[inline]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// `true` once a `halt` instruction has retired.
    #[inline]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Reads a register (`zero` always reads 0).
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `zero` are discarded), logging the
    /// overwritten value for checkpoint rollback.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, val: u32) {
        if !r.is_zero() {
            let slot = &mut self.regs[r.index()];
            let old = *slot;
            *slot = val;
            self.reg_undo.push_back((r.index() as u32, old));
        }
    }

    /// The data memory.
    pub fn mem(&self) -> &SparseMemory {
        &self.mem
    }

    /// Mutable access to data memory (for test setup and workload drivers).
    pub fn mem_mut(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }

    /// The instruction the PC currently points at.
    #[inline]
    pub fn current_inst<'p>(&self, program: &'p Program) -> Option<&'p Inst> {
        program.inst(self.pc)
    }

    /// Evaluates a conditional branch's condition against current register
    /// values without executing it.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a conditional branch.
    #[inline]
    pub fn eval_branch(&self, inst: &Inst) -> bool {
        match *inst {
            Inst::Branch { cond, rs1, rs2, .. } => cond.eval(self.reg(rs1), self.reg(rs2)),
            ref other => panic!("eval_branch on non-branch instruction {other}"),
        }
    }

    /// Executes one instruction, following the architecturally correct path.
    #[inline]
    pub fn step(&mut self, program: &Program) -> Step {
        self.step_inner(program, None)
    }

    /// Executes one instruction; if it is a conditional branch, follows
    /// `direction` instead of the evaluated condition.
    ///
    /// The returned [`Step::Branch`] still reports the *correct* outcome in
    /// `taken`, so the caller learns immediately (at decode time) whether the
    /// forced direction was a misprediction.
    #[inline]
    pub fn step_forced(&mut self, program: &Program, direction: bool) -> Step {
        self.step_inner(program, Some(direction))
    }

    fn step_inner(&mut self, program: &Program, force: Option<bool>) -> Step {
        if self.halted {
            return Step::Halt;
        }
        let inst = match program.inst(self.pc) {
            Some(i) => *i,
            None => return Step::OutOfRange,
        };
        self.exec_decoded(inst, force)
    }

    /// Executes an already-decoded instruction as if fetched from the
    /// current PC, skipping the halt check and program lookup.
    ///
    /// The caller must guarantee the machine is not halted and that `inst`
    /// is the instruction at the current PC — the pipeline simulator has
    /// both facts in hand from its own fetch, so re-deriving them here
    /// would be pure per-instruction overhead.
    #[inline]
    pub fn step_decoded(&mut self, inst: Inst, force: Option<bool>) -> Step {
        debug_assert!(!self.halted, "step_decoded on a halted machine");
        self.exec_decoded(inst, force)
    }

    // `always`: the pipeline's fetch loop runs this once per fetched
    // instruction from two call sites (branch and straight-line fetch);
    // left to a plain hint, LLVM keeps it out of line there, which costs
    // about 7% of simulator throughput.
    #[inline(always)]
    fn exec_decoded(&mut self, inst: Inst, force: Option<bool>) -> Step {
        let next = self.pc.wrapping_add(1);
        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = op.apply(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                self.pc = next;
                Step::Alu
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let v = op.apply(self.reg(rs1), imm as u32);
                self.set_reg(rd, v);
                self.pc = next;
                Step::Alu
            }
            Inst::Li { rd, imm } => {
                self.set_reg(rd, imm as u32);
                self.pc = next;
                Step::Alu
            }
            Inst::Load { rd, base, off } => {
                let addr = self.reg(base).wrapping_add(off as u32);
                let v = self.mem.read(addr);
                self.set_reg(rd, v);
                self.pc = next;
                Step::Load { addr }
            }
            Inst::Store { rs, base, off } => {
                let addr = self.reg(base).wrapping_add(off as u32);
                self.mem.write(addr, self.reg(rs));
                self.pc = next;
                Step::Store { addr }
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval(self.reg(rs1), self.reg(rs2));
                let followed = force.unwrap_or(taken);
                self.pc = if followed { target } else { next };
                Step::Branch {
                    taken,
                    followed,
                    target,
                }
            }
            Inst::Jump { target } => {
                self.pc = target;
                Step::Jump { target }
            }
            Inst::Call { target } => {
                self.set_reg(Reg::RA, next);
                self.pc = target;
                Step::Call { target }
            }
            Inst::Ret => {
                let target = self.reg(Reg::RA);
                self.pc = target;
                Step::Ret { target }
            }
            Inst::Halt => {
                self.halted = true;
                Step::Halt
            }
            Inst::Nop => {
                self.pc = next;
                Step::Nop
            }
        }
    }

    /// Runs until halt, an out-of-range PC, or `max_steps` instructions,
    /// returning the number of instructions executed.
    pub fn run(&mut self, program: &Program, max_steps: u64) -> u64 {
        let mut n = 0;
        while n < max_steps && !self.halted {
            match self.step(program) {
                Step::Halt | Step::OutOfRange => break,
                _ => n += 1,
            }
        }
        n
    }

    /// Snapshots the architectural state as a pair of undo-log positions
    /// (registers and memory) plus the PC. O(1).
    #[inline]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            reg_mark: self.reg_undo_base + self.reg_undo.len() as u64,
            pc: self.pc,
            halted: self.halted,
            mem: self.mem.mark(),
        }
    }

    /// Restores a snapshot, rolling back all register and memory writes
    /// made since.
    ///
    /// Checkpoints must be restored in LIFO order relative to other restores,
    /// and must not have been passed by [`release`](Machine::release).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's register-log prefix has already been
    /// released (a checkpoint-discipline bug in the caller).
    pub fn restore(&mut self, cp: &Checkpoint) {
        assert!(
            cp.reg_mark >= self.reg_undo_base,
            "restore of a released checkpoint"
        );
        while self.reg_undo_base + self.reg_undo.len() as u64 > cp.reg_mark {
            let (r, old) = self.reg_undo.pop_back().expect("reg undo underflow");
            self.regs[r as usize] = old;
        }
        self.pc = cp.pc;
        self.halted = cp.halted;
        self.mem.rollback_to(cp.mem);
    }

    /// Releases undo-log history older than `cp`, once `cp` can no longer be
    /// restored (its branch committed). Keeps the undo logs bounded.
    pub fn release(&mut self, cp: &Checkpoint) {
        let n = (cp.reg_mark.saturating_sub(self.reg_undo_base) as usize).min(self.reg_undo.len());
        if n > 0 {
            self.reg_undo.drain(..n);
            self.reg_undo_base += n as u64;
        }
        self.mem.release_to(cp.mem);
    }

    /// Number of live register-undo entries (bounded by the speculation
    /// window when the caller follows the checkpoint discipline).
    pub fn reg_undo_len(&self) -> usize {
        self.reg_undo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Cond, ProgramBuilder};

    fn prog(f: impl FnOnce(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        f(&mut b);
        b.build().unwrap()
    }

    #[test]
    fn arithmetic_program_runs_to_halt() {
        let p = prog(|b| {
            b.li(Reg::T0, 6);
            b.li(Reg::T1, 7);
            b.mul(Reg::T2, Reg::T0, Reg::T1);
            b.halt();
        });
        let mut m = Machine::new(&p);
        let n = m.run(&p, 100);
        assert_eq!(n, 3);
        assert!(m.halted());
        assert_eq!(m.reg(Reg::T2), 42);
    }

    #[test]
    fn zero_register_is_immutable() {
        let p = prog(|b| {
            b.li(Reg::ZERO, 99);
            b.addi(Reg::ZERO, Reg::ZERO, 5);
            b.halt();
        });
        let mut m = Machine::new(&p);
        m.run(&p, 10);
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let p = prog(|b| {
            let d = b.alloc(&[11, 22]);
            b.li(Reg::S0, d as i32);
            b.lw(Reg::T0, Reg::S0, 1);
            b.addi(Reg::T0, Reg::T0, 1);
            b.sw(Reg::T0, Reg::S0, 0);
            b.halt();
        });
        let mut m = Machine::new(&p);
        m.run(&p, 10);
        assert_eq!(m.reg(Reg::T0), 23);
        assert_eq!(m.mem().read(ProgramBuilder::DATA_BASE), 23);
    }

    #[test]
    fn call_and_ret_link_through_ra() {
        let p = prog(|b| {
            let f = b.label();
            b.call(f); // 0
            b.halt(); // 1
            b.bind(f);
            b.li(Reg::T0, 5); // 2
            b.ret(); // 3
        });
        let mut m = Machine::new(&p);
        assert_eq!(m.step(&p), Step::Call { target: 2 });
        assert_eq!(m.reg(Reg::RA), 1);
        m.step(&p);
        assert_eq!(m.step(&p), Step::Ret { target: 1 });
        assert_eq!(m.step(&p), Step::Halt);
        assert!(m.halted());
    }

    #[test]
    fn forced_branch_reports_true_outcome() {
        let p = prog(|b| {
            let t = b.label();
            b.li(Reg::T0, 1);
            b.bnez(Reg::T0, t); // actually taken
            b.li(Reg::T1, 100); // fall-through path
            b.bind(t);
            b.halt();
        });
        let mut m = Machine::new(&p);
        m.step(&p);
        // Force the (wrong) not-taken direction.
        let s = m.step_forced(&p, false);
        assert_eq!(
            s,
            Step::Branch {
                taken: true,
                followed: false,
                target: 3
            }
        );
        // We are on the wrong path.
        assert_eq!(m.pc(), 2);
        m.step(&p);
        assert_eq!(
            m.reg(Reg::T1),
            100,
            "wrong-path effects are visible until rollback"
        );
    }

    #[test]
    fn checkpoint_restore_rewinds_everything() {
        let p = prog(|b| {
            let d = b.alloc(&[1]);
            b.li(Reg::S0, d as i32);
            b.li(Reg::T0, 10);
            b.sw(Reg::T0, Reg::S0, 0);
            b.li(Reg::T0, 20);
            b.sw(Reg::T0, Reg::S0, 0);
            b.halt();
        });
        let mut m = Machine::new(&p);
        m.step(&p);
        m.step(&p);
        let cp = m.checkpoint();
        m.step(&p); // store 10
        m.step(&p); // t0 = 20
        m.step(&p); // store 20
        assert_eq!(m.mem().read(ProgramBuilder::DATA_BASE), 20);
        m.restore(&cp);
        assert_eq!(m.pc(), cp.pc());
        assert_eq!(m.reg(Reg::T0), 10);
        assert_eq!(m.mem().read(ProgramBuilder::DATA_BASE), 1);
        // Replay after restore produces identical architectural results.
        m.run(&p, 10);
        assert_eq!(m.mem().read(ProgramBuilder::DATA_BASE), 20);
    }

    #[test]
    fn out_of_range_pc_stalls_without_state_change() {
        let p = prog(|b| {
            b.li(Reg::T0, 3);
            b.halt();
        });
        let mut m = Machine::new(&p);
        m.step(&p);
        // Simulate a wrong-path return to garbage.
        m.set_reg(Reg::RA, 1_000_000);
        let cp = m.checkpoint();
        m.restore(&cp); // no-op sanity
        m.step(&p); // halt
        assert!(m.halted());
        assert_eq!(m.step(&p), Step::Halt, "halted machine stays halted");
    }

    #[test]
    fn out_of_range_step_returns_marker() {
        let p = prog(|b| b.nop());
        let mut m = Machine::new(&p);
        m.step(&p); // pc now 1, past the end
        assert_eq!(m.step(&p), Step::OutOfRange);
        assert_eq!(m.pc(), 1, "PC unchanged by out-of-range step");
    }

    #[test]
    fn eval_branch_matches_step_outcome() {
        let p = prog(|b| {
            let t = b.label();
            b.li(Reg::T0, 5);
            b.li(Reg::T1, 5);
            b.branch(Cond::Eq, Reg::T0, Reg::T1, t);
            b.bind(t);
            b.halt();
        });
        let mut m = Machine::new(&p);
        m.step(&p);
        m.step(&p);
        let inst = *m.current_inst(&p).unwrap();
        assert!(m.eval_branch(&inst));
        match m.step(&p) {
            Step::Branch { taken, .. } => assert!(taken),
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn nested_checkpoints_restore_in_lifo_order() {
        let p = prog(|b| {
            b.li(Reg::T0, 1); // 0
            b.li(Reg::T0, 2); // 1
            b.li(Reg::T0, 3); // 2
            b.halt();
        });
        let mut m = Machine::new(&p);
        let cp0 = m.checkpoint();
        m.step(&p);
        let cp1 = m.checkpoint();
        m.step(&p);
        m.restore(&cp1);
        assert_eq!(m.reg(Reg::T0), 1);
        assert_eq!(m.pc(), 1);
        m.restore(&cp0);
        assert_eq!(m.reg(Reg::T0), 0);
        assert_eq!(m.pc(), 0);
    }

    #[test]
    fn alu_imm_uses_sign_extended_immediate() {
        let p = prog(|b| {
            b.li(Reg::T0, 10);
            b.addi(Reg::T1, Reg::T0, -3);
            b.halt();
        });
        let mut m = Machine::new(&p);
        m.run(&p, 10);
        assert_eq!(m.reg(Reg::T1), 7);
    }

    #[test]
    fn alu_op_selector_matches_builder_encoding() {
        let p = prog(|b| {
            b.li(Reg::T0, 13);
            b.remi(Reg::T1, Reg::T0, 5);
            b.slti(Reg::T2, Reg::T0, 14);
            b.halt();
        });
        let mut m = Machine::new(&p);
        m.run(&p, 10);
        assert_eq!(m.reg(Reg::T1), 3);
        assert_eq!(m.reg(Reg::T2), 1);
        // Spot-check the encoding directly.
        assert!(matches!(p.insts()[1], Inst::AluImm { op: AluOp::Rem, .. }));
    }
}
