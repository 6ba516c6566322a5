//! Differential suite for the standard engine's NT-path memoization (the
//! only engine with a replay cache): a run with the cache enabled must be
//! **byte-identical** to the same run with it disabled —
//! every exit, cycle count, coverage bitmap, monitor record, committed
//! memory byte, register, statistic and prime-path count. Memoization is a
//! simulator-performance lever, never an architectural one.
//!
//! Random byte-soup programs exercise the ugly corners (crashing loads,
//! invalid targets, suppressed syscalls, watchpoints); directed nt-heavy
//! programs pin down that the cache actually *hits* while staying
//! identical; fault-injection runs pin down the bypass (faults on NT steps
//! must not be served from memo entries).

use pathexpander::{
    plan_paths, run_standard, run_standard_memo, run_standard_with, standard_memo_table, PxConfig,
    PxRunResult,
};
use px_isa::{
    AluOp, BranchCond, CheckKind, DecodedProgram, Instruction, Program, Reg, SyscallCode, Width,
};
use px_mach::{FaultPlan, IoState, MachConfig};
use px_util::prop::{any_i32, any_u32, any_u8, just, vec_of, BoxedStrategy, Strategy};
use px_util::{fnv1a64, px_oneof, px_prop};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

fn arb_width() -> BoxedStrategy<Width> {
    px_oneof![just(Width::Byte), just(Width::Word)].boxed()
}

fn arb_alu_op() -> BoxedStrategy<AluOp> {
    px_oneof![
        just(AluOp::Add),
        just(AluOp::Sub),
        just(AluOp::Mul),
        just(AluOp::Div),
        just(AluOp::Rem),
        just(AluOp::Shl),
        just(AluOp::Slt),
        just(AluOp::Xor),
    ]
    .boxed()
}

fn arb_cond() -> BoxedStrategy<BranchCond> {
    px_oneof![
        just(BranchCond::Eq),
        just(BranchCond::Ne),
        just(BranchCond::Lt),
        just(BranchCond::Gt),
    ]
    .boxed()
}

fn arb_offset() -> impl Strategy<Value = i32> {
    (0u32..8192).prop_map(|v| v as i32 - 64)
}

fn arb_target() -> impl Strategy<Value = u32> {
    any_u32().prop_map(|t| t % 64)
}

fn arb_instruction() -> BoxedStrategy<Instruction> {
    px_oneof![
        just(Instruction::Nop),
        just(Instruction::Ret),
        (arb_alu_op(), arb_reg(), arb_reg(), arb_reg())
            .prop_map(|(op, rd, rs1, rs2)| Instruction::Alu { op, rd, rs1, rs2 }),
        (arb_alu_op(), arb_reg(), arb_reg(), any_i32())
            .prop_map(|(op, rd, rs1, imm)| Instruction::AluI { op, rd, rs1, imm }),
        (arb_width(), arb_reg(), arb_reg(), arb_offset()).prop_map(|(width, rd, base, offset)| {
            Instruction::Load {
                width,
                rd,
                base,
                offset,
            }
        }),
        (arb_width(), arb_reg(), arb_reg(), arb_offset()).prop_map(|(width, rs, base, offset)| {
            Instruction::Store {
                width,
                rs,
                base,
                offset,
            }
        }),
        (arb_cond(), arb_reg(), arb_reg(), arb_target()).prop_map(|(cond, rs1, rs2, target)| {
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target,
            }
        }),
        arb_target().prop_map(|target| Instruction::Jump { target }),
        arb_target().prop_map(|target| Instruction::Call { target }),
        (any_u8().prop_map(|c| c % 4)).prop_map(|c| {
            Instruction::Syscall {
                code: [
                    SyscallCode::PutChar,
                    SyscallCode::GetChar,
                    SyscallCode::Rand,
                    SyscallCode::Exit,
                ][c as usize],
            }
        }),
        (arb_reg(), any_u32()).prop_map(|(cond, site)| Instruction::Check {
            kind: CheckKind::Assertion,
            cond,
            site
        }),
        (arb_reg(), arb_reg(), any_u32()).prop_map(|(base, len, tag)| Instruction::SetWatch {
            base,
            len,
            tag: tag % 8
        }),
    ]
    .boxed()
}

fn soup_program(code: Vec<Instruction>) -> Program {
    Program {
        code,
        entry: 0,
        mem_size: 4096,
        ..Program::default()
    }
}

/// Full-fidelity digest of a run: *everything* in the result, not just the
/// architectural subset the engines' cross-engine gates compare. Two runs
/// with equal digests are observably the same run.
fn full_digest(program: &Program, r: &PxRunResult) -> u64 {
    let mut h = fnv1a64(
        0,
        format!("{:?} {} {:?} {:?}", r.exit, r.cycles, r.core, r.stats).as_bytes(),
    );
    h = fnv1a64(h, r.io.output());
    h = fnv1a64(h, format!("{:?}", r.monitor.records()).as_bytes());
    for a in 0..r.memory.size() {
        h = fnv1a64(h, &[r.memory.byte(a)]);
    }
    h = r.taken_coverage.digest(program, h);
    h = r.total_coverage.digest(program, h);
    if let Some(pc) = &r.path_coverage {
        h = pc.digest(h);
    }
    h
}

const BUDGET: u64 = 20_000;

fn px_at(k: u8, memo: bool) -> PxConfig {
    PxConfig::default()
        .with_max_instructions(BUDGET)
        .with_counter_threshold(k)
        .with_counter_reset_interval(256)
        .with_max_nt_path_len(500)
        .with_nt_memo(memo)
}

fn assert_memo_identical(program: &Program, input: &[u8], k: u8) {
    let io = || IoState::new(input.to_vec(), 0xD1FF);
    let on = run_standard(program, &MachConfig::single_core(), &px_at(k, true), io());
    let off = run_standard(program, &MachConfig::single_core(), &px_at(k, false), io());
    assert_eq!(
        full_digest(program, &on),
        full_digest(program, &off),
        "standard memo on/off diverged (K={k}): {:?} vs {:?}",
        (&on.exit, on.cycles, &on.stats),
        (&off.exit, off.cycles, &off.stats),
    );
}

px_prop! {
    cases = 48;

    fn memo_identity_on_byte_soup(
        code in vec_of(arb_instruction(), 1..48),
        input in vec_of(any_u8(), 0..8),
        k in px_oneof![just(1u8), just(4), just(16)],
    ) {
        assert_memo_identical(&soup_program(code), &input, k);
    }

    fn memo_identity_under_fault_injection(
        code in vec_of(arb_instruction(), 1..32),
        seed in any_u32(),
    ) {
        // With a fault hook attached, memoization is structurally bypassed:
        // both runs simulate every NT step for real and stay identical.
        let program = soup_program(code);
        let io = || IoState::new(Vec::new(), 0xD1FF);
        let mut fa = FaultPlan::uniform(u64::from(seed), 3);
        let mut fb = FaultPlan::uniform(u64::from(seed), 3);
        let on = run_standard_with(
            &program,
            &MachConfig::single_core(),
            &px_at(4, true),
            io(),
            Some(&mut fa),
        );
        let off = run_standard_with(
            &program,
            &MachConfig::single_core(),
            &px_at(4, false),
            io(),
            Some(&mut fb),
        );
        assert_eq!(
            full_digest(&program, &on),
            full_digest(&program, &off),
            "fault-injected runs must bypass the memo identically"
        );
    }
}

/// An nt-heavy loop: every iteration re-spawns the same never-taken edge
/// into a cold store/load body whose only live-in is the constant `r9`,
/// which is exactly the shape the memo accelerates.
const NT_HEAVY: &str = r"
    .code
main:
    li   r1, 64          ; outer iterations
    li   r9, 2048        ; buffer
outer:
    beq  r1, r9, heavy   ; never taken: r1 stays far below r9
    subi r1, r1, 1
    bgt  r1, zero, outer
    li   r2, 0
    exit
heavy:
    sw   r9, 0(r9)
    lw   r10, 0(r9)
    sb   r10, 4(r9)
    addi r10, r10, 1
    jmp  heavy
";

#[test]
fn nt_heavy_identical_with_hits_and_path_plan() {
    let program = px_isa::asm::assemble(NT_HEAVY).expect("assembles");
    let set = px_analyze::Analysis::of(&program).prime_paths(&program);
    let plan = std::sync::Arc::new(plan_paths(&set).expect("unique digests"));
    for k in [1u8, 4, 16] {
        let px = px_at(k, true).with_path_plan(Some(plan.clone()));
        let on = run_standard(
            &program,
            &MachConfig::single_core(),
            &px,
            IoState::default(),
        );
        let off = run_standard(
            &program,
            &MachConfig::single_core(),
            &px.clone().with_nt_memo(false),
            IoState::default(),
        );
        assert_eq!(
            full_digest(&program, &on),
            full_digest(&program, &off),
            "nt-heavy memo on/off diverged (K={k})"
        );
    }
}

#[test]
fn explicit_table_hits_and_reuses_across_runs() {
    let program = px_isa::asm::assemble(NT_HEAVY).expect("assembles");
    let dp = DecodedProgram::decode(&program);
    let mach = MachConfig::single_core();
    let px = px_at(64, true);
    let mut table = standard_memo_table(&program, &mach, &px);
    let first = run_standard_memo(&program, &dp, &mach, &px, IoState::default(), &mut table);
    let hits_after_first = table.counters.hits;
    assert!(first.stats.spawns > 4, "nt-heavy must spawn");
    assert!(
        hits_after_first > 0,
        "repeated spawns of the same body must hit: {:?}",
        table.counters
    );
    assert!(table.counters.stores > 0);

    // A second run against the same table starts hot: at least as many hits
    // per spawn, and the result is still byte-identical to a memo-off run.
    let second = run_standard_memo(&program, &dp, &mach, &px, IoState::default(), &mut table);
    let plain = run_standard(
        &program,
        &mach,
        &px.clone().with_nt_memo(false),
        IoState::default(),
    );
    assert!(table.counters.hits > hits_after_first);
    assert_eq!(
        full_digest(&program, &second),
        full_digest(&program, &plain)
    );
    assert_eq!(full_digest(&program, &first), full_digest(&program, &plain));
}
