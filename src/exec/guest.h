/**
 * @file
 * The execution-driven guest programming model.
 *
 * Guest threads are C++20 coroutines. Every simulated action — load,
 * store, atomic, FPU operation, ALU work, barrier — is awaited through
 * a GuestCtx, and the awaiting coroutine is resumed when the cycle
 * engine has charged the corresponding time through the same caches,
 * banks, FPUs and barrier network that the ISA frontend uses.
 *
 * Dependence model: by default each awaited operation depends on the
 * result of the previous one (an in-order dependence chain, like
 * straight-line compiled code). Batches issue independent operations
 * back-to-back, one per cycle, modeling what compiler scheduling or
 * hand-unrolling would overlap (paper section 3.2.2, "unrolling").
 *
 * Helper coroutines compose: a GuestTask is itself awaitable
 * (symmetric transfer), so workloads can factor phases into
 * sub-coroutines that share the same GuestCtx.
 */

#ifndef CYCLOPS_EXEC_GUEST_H
#define CYCLOPS_EXEC_GUEST_H

#include <coroutine>
#include <span>
#include <type_traits>
#include <vector>

#include "arch/fpu.h"
#include "common/types.h"

namespace cyclops::exec
{

class GuestUnit;
struct CentralBarrier;
struct TreeBarrier;

/** A void coroutine task, awaitable from another guest coroutine. */
class GuestTask
{
  public:
    struct promise_type
    {
        std::coroutine_handle<> continuation;

        GuestTask
        get_return_object()
        {
            return GuestTask{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }
            std::coroutine_handle<>
            await_suspend(
                std::coroutine_handle<promise_type> self) noexcept
            {
                auto cont = self.promise().continuation;
                return cont ? cont : std::noop_coroutine();
            }
            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() noexcept {}
        [[noreturn]] void unhandled_exception();
    };

    GuestTask() = default;
    explicit GuestTask(std::coroutine_handle<promise_type> h) : h_(h) {}
    GuestTask(GuestTask &&other) noexcept : h_(other.h_)
    {
        other.h_ = nullptr;
    }
    GuestTask &
    operator=(GuestTask &&other) noexcept
    {
        if (this != &other) {
            destroy();
            h_ = other.h_;
            other.h_ = nullptr;
        }
        return *this;
    }
    GuestTask(const GuestTask &) = delete;
    GuestTask &operator=(const GuestTask &) = delete;
    ~GuestTask() { destroy(); }

    // Awaitable: transfer into the child coroutine.
    bool await_ready() const noexcept { return !h_ || h_.done(); }
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        h_.promise().continuation = cont;
        return h_;
    }
    void await_resume() const noexcept {}

    std::coroutine_handle<promise_type> handle() const { return h_; }
    bool done() const { return !h_ || h_.done(); }

  private:
    void
    destroy()
    {
        if (h_) {
            h_.destroy();
            h_ = nullptr;
        }
    }
    std::coroutine_handle<promise_type> h_;
};

/** Kinds of micro-operations a guest can await. */
enum class OpKind : u8
{
    Load,
    Store,
    AmoAdd,
    AmoSwap,
    AmoCas,
    Fpu,
    Alu,
    Branch,
    Sync,
    HwBarrier,
    SwCentralBarrier,
    SwTreeBarrier,
};

/** One awaited micro-operation (fields ordered to pack, 56 bytes). */
struct MicroOp
{
    u64 value = 0;      ///< store data / atomic operand / CAS desired
    u64 expect = 0;     ///< CAS expected value
    u64 result = 0;     ///< load / atomic result (filled on completion)
    CentralBarrier *central = nullptr;
    TreeBarrier *tree = nullptr;
    Addr ea = 0;
    u32 count = 1;      ///< ALU op count / hardware barrier id
    OpKind kind = OpKind::Alu;
    u8 bytes = 8;
    arch::FpuOp fpu = arch::FpuOp::Add;
    bool indep = false; ///< no dependence on the current chain

    static MicroOp
    load(Addr ea, u8 bytes = 8, bool indep = false)
    {
        MicroOp op;
        op.kind = OpKind::Load;
        op.ea = ea;
        op.bytes = bytes;
        op.indep = indep;
        return op;
    }

    static MicroOp
    store(Addr ea, u64 value, u8 bytes = 8, bool indep = false)
    {
        MicroOp op;
        op.kind = OpKind::Store;
        op.ea = ea;
        op.bytes = bytes;
        op.value = value;
        op.indep = indep;
        return op;
    }

    static MicroOp
    fpuOp(arch::FpuOp which, bool indep = false)
    {
        MicroOp op;
        op.kind = OpKind::Fpu;
        op.fpu = which;
        op.indep = indep;
        return op;
    }

    static MicroOp
    alu(u32 n, bool indep = false)
    {
        MicroOp op;
        op.kind = OpKind::Alu;
        op.count = n;
        op.indep = indep;
        return op;
    }
};

/** Awaitable for one micro-op or a batch. Returned by GuestCtx. */
class OpAwait
{
  public:
    OpAwait(GuestUnit &unit, MicroOp op) : unit_(unit), single_(op)
    {
        ops_ = {&single_, 1};
    }
    /** One micro-op built in place by @p make (the hot ops: no copy). */
    template <class Make>
        requires std::is_invocable_r_v<MicroOp, Make>
    OpAwait(GuestUnit &unit, Make make)
        : unit_(unit), single_(make()), ops_(&single_, 1)
    {}
    OpAwait(GuestUnit &unit, std::span<MicroOp> ops)
        : unit_(unit), ops_(ops)
    {}

    bool await_ready() const noexcept { return ops_.empty(); }
    // Defined in exec/guest_unit.h, which every guest program includes
    // (through exec/engine.h): hands the ops to the unit, no call.
    inline void await_suspend(std::coroutine_handle<> self) noexcept;
    u64 await_resume() const noexcept { return ops_[0].result; }

  private:
    GuestUnit &unit_;
    MicroOp single_;
    std::span<MicroOp> ops_;
};

/** The per-thread guest API handed to workload coroutines. */
class GuestCtx
{
  public:
    GuestCtx(GuestUnit &unit, u32 softIdx, u32 nThreads)
        : unit_(unit), softIdx_(softIdx), nThreads_(nThreads)
    {}

    u32 index() const { return softIdx_; }
    u32 threads() const { return nThreads_; }
    ThreadId hwThread() const;

    // --- Single dependent operations --------------------------------------

    /** Load @p bytes at @p ea; resumes with the (zero-extended) value. */
    OpAwait load(Addr ea, u8 bytes = 8) const
    {
        return {unit_, [&] { return MicroOp::load(ea, bytes); }};
    }

    /** Store @p value. */
    OpAwait store(Addr ea, u64 value, u8 bytes = 8) const
    {
        return {unit_, [&] { return MicroOp::store(ea, value, bytes); }};
    }

    /** Atomic fetch-and-add on a 32-bit word; resumes with the old value. */
    OpAwait
    amoadd(Addr ea, u32 value) const
    {
        MicroOp op;
        op.kind = OpKind::AmoAdd;
        op.ea = ea;
        op.bytes = 4;
        op.value = value;
        return {unit_, op};
    }

    /** Atomic swap; resumes with the old value. */
    OpAwait
    amoswap(Addr ea, u32 value) const
    {
        MicroOp op;
        op.kind = OpKind::AmoSwap;
        op.ea = ea;
        op.bytes = 4;
        op.value = value;
        return {unit_, op};
    }

    /** Atomic compare-and-swap; resumes with the old value. */
    OpAwait
    amocas(Addr ea, u32 expect, u32 desired) const
    {
        MicroOp op;
        op.kind = OpKind::AmoCas;
        op.ea = ea;
        op.bytes = 4;
        op.expect = expect;
        op.value = desired;
        return {unit_, op};
    }

    /** One FPU operation on the quad's shared FPU. */
    OpAwait fpu(arch::FpuOp which) const
    {
        return {unit_, MicroOp::fpuOp(which)};
    }

    /**
     * @p n single-cycle integer/logic instructions. Dependent by
     * default (they extend the chain); pass @p indep for loop/index
     * overhead that does not consume prior results.
     */
    OpAwait
    alu(u32 n = 1, bool indep = false) const
    {
        return {unit_, [&] { return MicroOp::alu(n, indep); }};
    }

    /** Loop/branch overhead: one 2-cycle branch. */
    OpAwait
    branch() const
    {
        return {unit_, [] {
                    MicroOp op;
                    op.kind = OpKind::Branch;
                    return op;
                }};
    }

    /** Drain all outstanding memory operations. */
    OpAwait
    sync() const
    {
        MicroOp op;
        op.kind = OpKind::Sync;
        return {unit_, op};
    }

    /** A batch of operations issued back-to-back (one per cycle). */
    OpAwait batch(std::span<MicroOp> ops) const { return {unit_, ops}; }

    // --- Barriers ----------------------------------------------------------

    /** Enter hardware barrier @p id (wired-OR SPR protocol). */
    OpAwait
    hwBarrier(u32 id = 0) const
    {
        MicroOp op;
        op.kind = OpKind::HwBarrier;
        op.count = id;
        return {unit_, op};
    }

    /** Enter a central sense-reversing software barrier. */
    OpAwait
    swBarrier(CentralBarrier &barrier) const
    {
        MicroOp op;
        op.kind = OpKind::SwCentralBarrier;
        op.central = &barrier;
        return {unit_, op};
    }

    /** Enter the paper's tree-based software barrier. */
    OpAwait
    swBarrier(TreeBarrier &barrier) const
    {
        MicroOp op;
        op.kind = OpKind::SwTreeBarrier;
        op.tree = &barrier;
        return {unit_, op};
    }

    // --- Convenience: typed memory helpers (functional reads are free;
    // use load()/store() to charge time) -----------------------------------

    /** Read a double directly (no simulated time; setup/verification). */
    double peekDouble(Addr ea) const;

    /** Write a double directly (no simulated time). */
    void pokeDouble(Addr ea, double value) const;

    GuestUnit &unit() const { return unit_; }

  private:
    GuestUnit &unit_;
    u32 softIdx_;
    u32 nThreads_;
};

/** The signature workloads implement for each thread. */
using GuestFn = GuestTask (*)(GuestCtx &);

} // namespace cyclops::exec

#endif // CYCLOPS_EXEC_GUEST_H
