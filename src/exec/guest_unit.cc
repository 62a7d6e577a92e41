#include "exec/guest_unit.h"

#include "common/log.h"
#include "exec/barriers.h"

namespace cyclops::exec
{

using arch::CycleCat;
using arch::MemKind;
using arch::MemTiming;

[[noreturn]] void
GuestTask::promise_type::unhandled_exception()
{
    panic("unhandled exception escaped a guest coroutine");
}

GuestUnit::GuestUnit(ThreadId tid, arch::Chip &chip, u32 softIdx)
    : Unit(tid),
      chip_(chip),
      softIdx_(softIdx),
      hwProto_{arch::HwBarrierProtocol(0), arch::HwBarrierProtocol(1),
               arch::HwBarrierProtocol(2), arch::HwBarrierProtocol(3)}
{
    mem_.init(chip.config().maxOutstandingMem);
}

void
GuestUnit::start(GuestTask task)
{
    if (top_.handle())
        panic("GuestUnit::start called twice");
    top_ = std::move(task);
}

void
GuestUnit::armHwBarriers()
{
    // Participants initially set the current-cycle bit of every
    // barrier; the engine arms all spawned threads before any of them
    // runs, which the protocol requires.
    mySpr_ = 0;
    for (const auto &proto : hwProto_)
        mySpr_ |= proto.armValue();
    chip_.barrier().write(tid_, mySpr_);
}

void
GuestUnit::postTwice()
{
    panic("guest posted a micro-op while one is in flight");
}

[[gnu::always_inline]] inline MemTiming
GuestUnit::issueMem(Cycle now, MemKind kind, Addr ea, u8 bytes,
                    u64 *inout)
{
    const arch::MemRef ref = chip_.decodeMem(ea, bytes, tid_);
    const MemTiming t = kind == MemKind::Store
                            ? chip_.storeTimed(now, tid_, ref, *inout)
                            : chip_.loadTimed(now, tid_, ref, inout);
    noteDmem(t.hit);
    return t;
}

MemTiming
GuestUnit::fetchAdd(Cycle now, Addr ea, u32 *old)
{
    const arch::MemRef ref = chip_.decodeAtomic(ea, tid_);
    *old = u32(arch::Chip::load(ref));
    arch::Chip::store(ref, *old + 1);
    return chip_.dmem(now, tid_, ref, MemKind::Atomic);
}

[[gnu::always_inline]] inline bool
GuestUnit::waitMemSlot(Cycle now, StepResult *wait)
{
    if (!mem_.full(now))
        return false;
    const Cycle wake = mem_.earliest();
    accountWait(now, wake,
                mem_.earliestFabric() ? CycleCat::RemoteWait
                                      : CycleCat::DcacheMiss);
    *wait = {false, wake};
    return true;
}

// The common micro-ops, inlined into tick(); the rest go to stepOther().
[[gnu::always_inline]] inline GuestUnit::StepResult
GuestUnit::step(Cycle now, MicroOp &op)
{
    // Dependence on the current chain (in-order issue of dependent code).
    const bool needsChain = !op.indep && op.kind != OpKind::Sync;
    if (needsChain && chainReady_ > now) {
        accountMemWait(now, chainReady_, chainCat_, chainQueue_);
        chainQueue_ = 0; // the queueing share is charged once
        return {false, chainReady_};
    }

    switch (op.kind) {
      case OpKind::Alu: {
        noteProgress();
        // A zero-count op still occupies the one cycle its tick takes.
        accountIssue(now, std::max<u32>(op.count, 1));
        // Independent ALU work (loop overhead) does not produce a
        // value the chain waits on; dependent ALU work replaces it.
        if (!op.indep)
            chainReady_ = now + op.count;
        return {true, now + op.count};
      }

      case OpKind::Branch: {
        const u32 exec = chip_.config().lat.branchExec;
        accountIssue(now, exec);
        return {true, now + exec};
      }

      case OpKind::Load: {
        StepResult wait;
        if (waitMemSlot(now, &wait))
            return wait;
        MemTiming t = issueMem(now, MemKind::Load, op.ea, op.bytes,
                               &op.result);
        // Polling semantics: re-reading an unchanged location is not
        // forward progress; streaming reads (changing ea) are.
        notePoll(0, op.ea, op.result);
        mem_.add(t.ready, t.fabric);
        setChain(t.ready,
                 t.fabric ? CycleCat::RemoteWait : CycleCat::DcacheMiss,
                 t.queueWait);
        accountIssue(now, 1);
        return {true, now + 1};
      }

      case OpKind::Store: {
        StepResult wait;
        if (waitMemSlot(now, &wait))
            return wait;
        noteProgress();
        MemTiming t = issueMem(now, MemKind::Store, op.ea, op.bytes,
                               &op.value);
        mem_.add(t.ready, t.fabric);
        accountIssue(now, 1);
        return {true, now + 1};
      }

      default:
        return stepOther(now, op);
    }
}

Cycle
GuestUnit::tick(Cycle now)
{
    if (halted_)
        return kCycleNever;

    if (!pending_) {
        // Resume the guest; it runs natively until it awaits the next
        // micro-op or the top-level coroutine finishes.
        auto h = current_ ? current_
                          : std::coroutine_handle<>(top_.handle());
        if (!started_) {
            started_ = true;
            if (!top_.handle())
                panic("GuestUnit activated without a coroutine");
        }
        h.resume();
        if (!pending_) {
            if (top_.done()) {
                markHalted();
                accountIssue(now, 1); // the final halt
                return kCycleNever;
            }
            panic("guest coroutine suspended without posting an op");
        }
    }

    MicroOp &op = ops_[opIdx_];
    StepResult r = step(now, op);
    if (!r.done)
        return std::max(r.at, now + 1);

    barStage_ = 0;
    barChild_ = 0;
    ++opIdx_;
    if (opIdx_ >= ops_.size()) {
        pending_ = false;
        ops_ = {};
        opIdx_ = 0;
    }
    return std::max(r.at, now + 1);
}

GuestUnit::StepResult
GuestUnit::stepOther(Cycle now, MicroOp &op)
{
    switch (op.kind) {
      case OpKind::Fpu: {
        Cycle resultAt = 0;
        if (!chip_.fpuOf(tid_).dispatch(now, op.fpu, &resultAt)) {
            accountWait(now, now + 1, CycleCat::FpuArb);
            return {false, now + 1};
        }
        noteProgress();
        accountIssue(now, 1);
        setChain(resultAt, CycleCat::FpuArb, 0);
        return {true, now + 1};
      }

      case OpKind::AmoAdd:
      case OpKind::AmoSwap:
      case OpKind::AmoCas: {
        StepResult wait;
        if (waitMemSlot(now, &wait))
            return wait;
        const arch::MemRef ref = chip_.decodeAtomic(op.ea, tid_);
        const u32 old = u32(arch::Chip::load(ref));
        notePoll(0, op.ea, old);
        u32 fresh = old;
        bool doWrite = true;
        if (op.kind == OpKind::AmoAdd)
            fresh = old + u32(op.value);
        else if (op.kind == OpKind::AmoSwap)
            fresh = u32(op.value);
        else
            doWrite = old == u32(op.expect), fresh = u32(op.value);
        if (doWrite)
            arch::Chip::store(ref, fresh);
        MemTiming t = chip_.dmem(now, tid_, ref, MemKind::Atomic);
        noteDmem(t.hit);
        op.result = old;
        mem_.add(t.ready, t.fabric);
        setChain(t.ready,
                 t.fabric ? CycleCat::RemoteWait : CycleCat::DcacheMiss,
                 t.queueWait);
        accountIssue(now, 1);
        return {true, now + 1};
      }

      case OpKind::Sync: {
        mem_.prune(now);
        if (!mem_.empty()) {
            const Cycle wake = mem_.latest();
            accountWait(now, wake,
                        mem_.latestFabric() ? CycleCat::RemoteWait
                                            : CycleCat::DcacheMiss);
            return {false, wake};
        }
        if (chainReady_ > now) {
            accountMemWait(now, chainReady_, chainCat_, chainQueue_);
            chainQueue_ = 0;
            return {false, chainReady_};
        }
        noteProgress();
        accountIssue(now, 1);
        return {true, now + 1};
      }

      case OpKind::HwBarrier:
        return stepHwBarrier(now, op);
      case OpKind::SwCentralBarrier:
        return stepCentral(now, op);
      case OpKind::SwTreeBarrier:
        return stepTree(now, op);
      default:
        break;
    }
    panic("unhandled micro-op kind");
}

GuestUnit::StepResult
GuestUnit::stepHwBarrier(Cycle now, MicroOp &op)
{
    const LatencyConfig &lat = chip_.config().lat;
    if (op.count >= arch::kNumHwBarriers)
        guestCheck("hardware barrier id %u out of range", op.count);
    arch::HwBarrierProtocol &proto = hwProto_[op.count];

    if (barStage_ == 0) {
        // Enter: one SPR write flips current off / next on, preceded by
        // the three ALU instructions computing the new register value.
        mySpr_ = proto.enterValue(mySpr_);
        chip_.barrier().write(tid_, mySpr_);
        noteProgress();
        accountIssue(now, 4);
        barStage_ = 1;
        barEnterAt_ = now;
        return {false, now + 4};
    }

    // Spin: mfspr + mask + branch. The SPR read result is available
    // after sprLat; the dependent branch waits for it.
    // The spin itself generates no progress events; only observing the
    // release does. A barrier nobody else ever enters therefore starves
    // the watchdog, which is exactly what "deadlock" means here.
    const u8 orValue = chip_.barrier().read();
    accountIssue(now, 3);
    if (proto.released(orValue)) {
        proto.consumeRelease();
        noteProgress();
        Tracer &tr = chip_.tracer();
        if (tr.on(TraceCat::Barrier))
            tr.complete(TraceCat::Barrier, tid_, "hwBarrier", barEnterAt_,
                        now + 3 - barEnterAt_, op.count);
        return {true, now + 3};
    }
    accountWait(now + 3, now + 3 + lat.sprLat, CycleCat::BarrierWait);
    return {false, now + 3 + lat.sprLat};
}

GuestUnit::StepResult
GuestUnit::stepCentral(Cycle now, MicroOp &op)
{
    CentralBarrier &bar = *op.central;
    if (bar.count == 1) {
        noteProgress();
        accountIssue(now, 1);
        return {true, now + 1};
    }

    switch (barStage_) {
      case 0: {
        // Flip the local sense and fetch-and-add the counter.
        noteProgress();
        bar.localSense[softIdx_] ^= 1;
        u32 old;
        const MemTiming t = fetchAdd(now, bar.counterEa, &old);
        noteDmem(t.hit);
        accountIssue(now, 2); // xori + amoadd
        barScratch_ = old + 1;
        barStage_ = barScratch_ == bar.count ? 2 : 1;
        barEnterAt_ = now;
        // The arrival count gates the branch: wait for the result.
        accountWait(now + 2, t.ready, CycleCat::BarrierWait);
        return {false, std::max(t.ready, now + 2)};
      }
      case 1: {
        // Spin on the release flag written by the last arriver.
        u64 flag = 0;
        MemTiming t = issueMem(now, MemKind::Load, bar.senseEa, 4, &flag);
        accountIssue(now, 3); // load + compare + branch
        const Cycle at = std::max(t.ready + 2, now + 3);
        // The dependent compare/branch wait on the load is barrier time
        // whether or not this iteration observes the release.
        accountWait(now + 3, at, CycleCat::BarrierWait);
        if (u32(flag) == bar.localSense[softIdx_]) {
            noteProgress();
            Tracer &tr = chip_.tracer();
            if (tr.on(TraceCat::Barrier))
                tr.complete(TraceCat::Barrier, tid_, "centralBarrier",
                            barEnterAt_, at - barEnterAt_);
            return {true, at};
        }
        return {false, at};
      }
      case 2: {
        // Last thread: reset the counter, then release everyone.
        noteProgress();
        u64 zero = 0;
        issueMem(now, MemKind::Store, bar.counterEa, 4, &zero);
        u64 sense = bar.localSense[softIdx_];
        issueMem(now + 1, MemKind::Store, bar.senseEa, 4, &sense);
        accountIssue(now, 2);
        Tracer &tr = chip_.tracer();
        if (tr.on(TraceCat::Barrier))
            tr.complete(TraceCat::Barrier, tid_, "centralBarrier",
                        barEnterAt_, now + 2 - barEnterAt_);
        return {true, now + 2};
      }
    }
    panic("central barrier: bad stage %u", barStage_);
}

GuestUnit::StepResult
GuestUnit::stepTree(Cycle now, MicroOp &op)
{
    TreeBarrier &bar = *op.tree;
    const u32 self = softIdx_;
    if (bar.count == 1) {
        noteProgress();
        accountIssue(now, 1);
        return {true, now + 1};
    }

    const u32 children = bar.numChildren(self);
    const bool isRoot = self == 0;

    switch (barStage_) {
      case 0: {
        // New round; leaves skip the child wait.
        noteProgress();
        ++bar.round[self];
        accountIssue(now, 1);
        barStage_ = children > 0 ? 1 : 2;
        barEnterAt_ = now;
        return {false, now + 1};
      }
      case 1: {
        // Spin until all children of this node have arrived this round.
        u64 arrived = 0;
        MemTiming t =
            issueMem(now, MemKind::Load, bar.arriveEa(self), 4, &arrived);
        accountIssue(now, 3); // load + compare + branch
        const Cycle at = std::max(t.ready + 2, now + 3);
        accountWait(now + 3, at, CycleCat::BarrierWait);
        const u64 expected = u64(children) * bar.round[self];
        if (arrived >= expected) {
            noteProgress();
            barStage_ = isRoot ? 4 : 2;
        }
        return {false, at};
      }
      case 2: {
        // Notify the parent.
        noteProgress();
        const Addr parentEa = bar.arriveEa(bar.parent(self));
        u32 old;
        noteDmem(fetchAdd(now, parentEa, &old).hit);
        accountIssue(now, 1);
        barStage_ = 3;
        return {false, now + 1};
      }
      case 3: {
        // Spin on our release flag, written by the parent.
        u64 flag = 0;
        MemTiming t =
            issueMem(now, MemKind::Load, bar.releaseEa(self), 4, &flag);
        accountIssue(now, 3);
        const Cycle at = std::max(t.ready + 2, now + 3);
        accountWait(now + 3, at, CycleCat::BarrierWait);
        if (flag >= bar.round[self]) {
            noteProgress();
            barStage_ = 4;
            barChild_ = 0;
        }
        return {false, at};
      }
      case 4: {
        // Release our children, one store per child.
        if (barChild_ >= children) {
            // The final check cycle is part of the barrier, not run.
            accountWait(now, now + 1, CycleCat::BarrierWait);
            Tracer &tr = chip_.tracer();
            if (tr.on(TraceCat::Barrier))
                tr.complete(TraceCat::Barrier, tid_, "treeBarrier",
                            barEnterAt_, now + 1 - barEnterAt_);
            return {true, now + 1};
        }
        const u32 child = bar.radix * self + 1 + barChild_;
        u64 round = bar.round[self];
        noteProgress();
        issueMem(now, MemKind::Store, bar.releaseEa(child), 4, &round);
        accountIssue(now, 1);
        ++barChild_;
        return {false, now + 1};
      }
    }
    panic("tree barrier: bad stage %u", barStage_);
}

} // namespace cyclops::exec
