// Deterministic discrete-event virtual-time engine.
//
// Exactly one simulated process executes at a time: whenever the running
// process blocks (Delay or channel receive), the scheduler hands the baton
// to the waiting process with the smallest (wake_time, ready_seq) and
// advances the virtual clock to that time. Execution order is therefore a
// deterministic function of the program and its seeds, independent of OS
// scheduling — repeated runs produce identical event interleavings and
// identical virtual timings.
//
// Processes are user-level fibers driven by the thread that calls Run(); a
// switch is a user-space stack swap with no system call (x86-64 only; see
// DESIGN.md "Fibers"). Waiting processes sit in one (wake_time, seq) heap
// (see DESIGN.md "Engine internals").
//
// Lifecycle: Spawn processes (daemon = server loops), then Run(). Run
// returns when every non-daemon process has finished; at that point all
// blocked channel receives return "shutdown" (nullopt) so daemons unwind.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "mermaid/sim/runtime.h"

namespace mermaid::sim {

class Engine final : public Runtime {
 public:
  Engine();
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Drives the simulation until all non-daemon processes finish and all
  // daemons have unwound. Returns the final virtual time. Must be called
  // exactly once, after at least one non-daemon Spawn.
  SimTime Run();

  // Runtime interface. Delay() must be called from a simulated process;
  // Now() and Spawn() may also be called from outside (before Run or, for
  // Now, after it).
  SimTime Now() override;
  void Delay(SimDuration d) override;
  void Spawn(std::string name, std::function<void()> fn,
             bool daemon = false) override;
  std::shared_ptr<ChanCore> MakeChan(
      std::function<void(void*)> deleter) override;
  void SetTracer(trace::Tracer* tracer) override { tracer_ = tracer; }
  std::string SchedulerReport() override;

  // Number of scheduling decisions so far; exposed for determinism tests.
  std::uint64_t switch_count() const { return switch_count_; }
  // Of those, how many short-circuited because the blocking process was
  // still the global minimum and kept running without a context swap.
  std::uint64_t fast_resume_count() const { return fast_resume_count_; }

  // Channels whose user-side handles are still alive (the engine itself
  // holds only weak references; see the MakeChan retention regression).
  std::size_t live_chan_count();

 private:
  struct Proc;
  class SimChan;
  friend class SimChan;
  struct FiberState;

  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  // Usable stack per fiber. Each fiber maps this plus a guard page; memory
  // is committed on touch.
  static constexpr std::size_t kFiberStackBytes = 512 * 1024;

  // Ready heap entry; stale entries (seq no longer the process's current
  // seq) are dropped lazily when they reach the top.
  struct QEntry {
    SimTime t;
    std::uint64_t seq;
    Proc* p;
  };
  struct QEntryGt {
    bool operator()(const QEntry& a, const QEntry& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  using MinQ =
      std::priority_queue<QEntry, std::vector<QEntry>, QEntryGt>;

  // Marks `p` schedulable at time `t` (only ever moves the wake earlier).
  void MakeReadyLocked(Proc* p, SimTime t);
  // Files `p` in the ready heap under its current (wake_time, seq).
  void EnqueueLocked(Proc* p);
  // Pops stale entries until the heap's top is a live one (or it is empty).
  void PruneLocked();
  // Picks (and dequeues) the runnable process with the global minimum
  // (wake_time, seq); nullptr if none.
  Proc* PickNextLocked();
  void DispatchLocked(Proc* p);
  // Suspends the calling process until the scheduler resumes it.
  void SwitchOutLocked(std::unique_lock<std::mutex>& lk, Proc* self);
  void InitiateShutdownLocked();
  [[noreturn]] void DeadlockLocked();
  void PruneChansLocked();
  void DestroyProcs();
  void CreateFiber(Proc* p);
  void SwitchToFiber(Proc* p);
  void SwitchToScheduler(Proc* p, bool final_exit);
  void FiberMain(Proc* p);
  // First code a fresh fiber runs (entered from mermaid_fiber_start).
  [[noreturn]] static void FiberEntry(Proc* p);

  SimTime now_rel() const { return now_.load(std::memory_order_relaxed); }

  std::mutex mu_;
  std::vector<Proc*> procs_;
  MinQ ready_;
  std::vector<std::weak_ptr<SimChan>> chans_;
  std::size_t chan_prune_at_ = 64;
  std::uint64_t chans_created_ = 0;
  Proc* current_ = nullptr;
  // Written only at dispatch (under mu_); read lock-free by Now() — the
  // running process is ordered after its own dispatch, so it always sees
  // the current value.
  std::atomic<SimTime> now_{0};
  std::uint64_t ready_seq_ = 0;
  std::uint64_t push_seq_ = 0;
  std::uint64_t switch_count_ = 0;
  std::uint64_t fast_resume_count_ = 0;
  int live_nondaemon_ = 0;
  int live_total_ = 0;
  bool shutting_down_ = false;
  bool run_done_ = false;
  bool run_called_ = false;
  trace::Tracer* tracer_ = nullptr;
  std::unique_ptr<FiberState> fibers_;
};

}  // namespace mermaid::sim
