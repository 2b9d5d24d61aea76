#include "mermaid/sim/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <queue>

#include "mermaid/base/check.h"
#include "mermaid/trace/trace.h"

#if defined(__SANITIZE_ADDRESS__)
#define MERMAID_HAS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MERMAID_HAS_ASAN 1
#endif
#endif

#ifdef MERMAID_HAS_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__)
// The fiber switch below is x86-64 SysV assembly. Another target needs its
// own version of both routines (see DESIGN.md "Fibers").
#error "sim::Engine: port mermaid_fiber_switch and mermaid_fiber_start"
#endif

#ifndef MAP_STACK
#define MAP_STACK 0
#endif

// mermaid_fiber_switch(save, load) suspends the caller and resumes another
// fiber: it pushes the SysV callee-saved registers (rbp, rbx, r12-r15) and
// the FP control state (MXCSR, x87 control word) on the current stack,
// stores the stack pointer in *save, then loads `load` and pops the same
// frame from there. Caller-saved state needs no saving: the call itself
// clobbers it. A fresh stack holds a frame whose return address is
// mermaid_fiber_start, which calls r13(r12) and must never return.
extern "C" void mermaid_fiber_switch(void** save, void* load);
extern "C" void mermaid_fiber_start();

asm(R"(
  .text
  .p2align 4
  .globl mermaid_fiber_switch
  .hidden mermaid_fiber_switch
  .type mermaid_fiber_switch, @function
mermaid_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size mermaid_fiber_switch, .-mermaid_fiber_switch

  .p2align 4
  .globl mermaid_fiber_start
  .hidden mermaid_fiber_start
  .type mermaid_fiber_start, @function
mermaid_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size mermaid_fiber_start, .-mermaid_fiber_start
)");

namespace mermaid::sim {

namespace {
// Identifies the process the current OS thread is running, to catch misuse
// of process-only calls from the wrong thread. Every process runs on the
// Run() thread, so the scheduler sets/clears this around each fiber swap.
thread_local void* tls_proc = nullptr;

// ASan must be told about every stack switch or it poisons/unpoisons the
// wrong frames and reports false stack-use-after-return. No-ops elsewhere.
inline void AsanStartSwitch(void** fake_save, const void* stack_lo,
                            std::size_t stack_sz) {
#ifdef MERMAID_HAS_ASAN
  __sanitizer_start_switch_fiber(fake_save, stack_lo, stack_sz);
#else
  (void)fake_save;
  (void)stack_lo;
  (void)stack_sz;
#endif
}

inline void AsanFinishSwitch(void* fake_restore, const void** old_lo,
                             std::size_t* old_sz) {
#ifdef MERMAID_HAS_ASAN
  __sanitizer_finish_switch_fiber(fake_restore, old_lo, old_sz);
#else
  (void)fake_restore;
  (void)old_lo;
  (void)old_sz;
#endif
}

// A new stack may reuse the addresses of an unmapped one whose last frames
// left poisoned shadow behind; start it clean.
inline void AsanUnpoisonStack(void* lo, std::size_t sz) {
#ifdef MERMAID_HAS_ASAN
  __asan_unpoison_memory_region(lo, sz);
#else
  (void)lo;
  (void)sz;
#endif
}
}  // namespace

struct Engine::Proc {
  Engine* eng = nullptr;
  std::string name;
  std::function<void()> fn;
  bool daemon = false;
  bool done = false;
  // Earliest virtual time at which this process may resume; kNever while it
  // is blocked with nothing to wait for.
  SimTime wake_time = 0;
  std::uint64_t seq = 0;
  bool running = false;
  // Saved stack pointer while switched out, plus an mmapped stack with a
  // guard page at the low end. asan_fake is ASan's fake-stack handle for
  // this fiber.
  void* sp = nullptr;
  void* stack_base = nullptr;
  std::size_t stack_total = 0;
  void* stack_lo = nullptr;
  std::size_t stack_usable = 0;
  void* asan_fake = nullptr;
};

struct Engine::FiberState {
  void* sched_sp = nullptr;  // Run() thread's stack pointer while a fiber runs
  void* sched_fake = nullptr;  // ASan handle for the Run() thread's stack
  const void* sched_lo = nullptr;
  std::size_t sched_sz = 0;
};

class Engine::SimChan final : public ChanCore {
 public:
  SimChan(Engine* eng, std::function<void(void*)> deleter)
      : eng_(eng), deleter_(std::move(deleter)) {}

  ~SimChan() override {
    while (!items_.empty()) {
      deleter_(items_.top().item);
      items_.pop();
    }
  }

  void Push(void* item, SimTime deliver_time) override {
    std::unique_lock<std::mutex> lk(eng_->mu_);
    if (eng_->shutting_down_) {
      deleter_(item);
      return;
    }
    deliver_time = std::max(deliver_time, eng_->now_rel());
    items_.push(Item{deliver_time, ++eng_->push_seq_, item});
    for (Proc* w : waiters_) eng_->MakeReadyLocked(w, deliver_time);
  }

  void* Pop(SimTime deadline, bool* timed_out) override {
    if (timed_out != nullptr) *timed_out = false;
    std::unique_lock<std::mutex> lk(eng_->mu_);
    Proc* self = eng_->current_;
    MERMAID_CHECK_MSG(self != nullptr && tls_proc == self,
                      "Chan::Recv called outside a simulated process");
    for (;;) {
      if (eng_->shutting_down_) return nullptr;
      if (!items_.empty() && items_.top().deliver <= eng_->now_rel()) {
        void* item = items_.top().item;
        items_.pop();
        return item;
      }
      if (deadline >= 0 && eng_->now_rel() >= deadline) {
        if (timed_out != nullptr) *timed_out = true;
        return nullptr;
      }
      SimTime wake = kNever;
      if (!items_.empty()) wake = items_.top().deliver;
      if (deadline >= 0) wake = std::min(wake, deadline);
      self->wake_time = wake;
      self->seq = ++eng_->ready_seq_;
      waiters_.push_back(self);
      eng_->SwitchOutLocked(lk, self);
      waiters_.erase(std::find(waiters_.begin(), waiters_.end(), self));
    }
  }

  void* TryPop() override {
    std::unique_lock<std::mutex> lk(eng_->mu_);
    if (!items_.empty() && items_.top().deliver <= eng_->now_rel()) {
      void* item = items_.top().item;
      items_.pop();
      return item;
    }
    return nullptr;
  }

 private:
  struct Item {
    SimTime deliver;
    std::uint64_t seq;  // FIFO order among equal delivery times
    void* item;
    bool operator>(const Item& o) const {
      return deliver != o.deliver ? deliver > o.deliver : seq > o.seq;
    }
  };

  Engine* eng_;
  std::function<void(void*)> deleter_;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> items_;
  std::vector<Proc*> waiters_;
};

Engine::Engine() : fibers_(std::make_unique<FiberState>()) {}

Engine::~Engine() {
  if (!run_called_ && live_total_ > 0) {
    // Processes were spawned but never driven; run them to completion so
    // their fibers can be reaped.
    Run();
  }
  DestroyProcs();
}

void Engine::DestroyProcs() {
  for (Proc* p : procs_) {
    if (p->stack_base != nullptr) munmap(p->stack_base, p->stack_total);
    delete p;
  }
  procs_.clear();
}

SimTime Engine::Now() { return now_.load(std::memory_order_acquire); }

void Engine::Delay(SimDuration d) {
  MERMAID_CHECK(d >= 0);
  std::unique_lock<std::mutex> lk(mu_);
  Proc* self = current_;
  MERMAID_CHECK_MSG(self != nullptr && tls_proc == self,
                    "Delay called outside a simulated process");
  self->wake_time = now_rel() + d;
  self->seq = ++ready_seq_;
  SwitchOutLocked(lk, self);
}

void Engine::Spawn(std::string name, std::function<void()> fn, bool daemon) {
  std::unique_lock<std::mutex> lk(mu_);
  MERMAID_CHECK_MSG(!run_done_, "Spawn after Run completed");
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Record(trace::EventKind::kProcSpawn, trace::kNoHost, now_rel(),
                    trace::kNoPage, static_cast<std::uint64_t>(procs_.size()),
                    0, daemon ? 1 : 0);
  }
  auto* p = new Proc();
  p->eng = this;
  p->name = std::move(name);
  p->fn = std::move(fn);
  p->daemon = daemon;
  p->wake_time = now_rel();
  p->seq = ++ready_seq_;
  ++live_total_;
  if (!daemon) ++live_nondaemon_;
  procs_.push_back(p);
  EnqueueLocked(p);
  CreateFiber(p);
}

std::shared_ptr<ChanCore> Engine::MakeChan(
    std::function<void(void*)> deleter) {
  auto ch = std::make_shared<SimChan>(this, std::move(deleter));
  std::unique_lock<std::mutex> lk(mu_);
  ++chans_created_;
  if (chans_.size() >= chan_prune_at_) PruneChansLocked();
  chans_.push_back(ch);
  return ch;
}

void Engine::PruneChansLocked() {
  std::erase_if(chans_,
                [](const std::weak_ptr<SimChan>& w) { return w.expired(); });
  chan_prune_at_ = std::max<std::size_t>(64, 2 * chans_.size());
}

std::size_t Engine::live_chan_count() {
  std::unique_lock<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& w : chans_) {
    if (!w.expired()) ++n;
  }
  return n;
}

SimTime Engine::Run() {
  std::unique_lock<std::mutex> lk(mu_);
  MERMAID_CHECK_MSG(!run_called_, "Engine::Run called twice");
  run_called_ = true;
  for (;;) {
    MERMAID_CHECK(current_ == nullptr);
    Proc* next = PickNextLocked();
    if (next == nullptr) {
      if (live_total_ == 0) break;
      if (!shutting_down_ && live_nondaemon_ == 0) {
        InitiateShutdownLocked();
        continue;  // daemons are now schedulable
      }
      DeadlockLocked();
    }
    DispatchLocked(next);
    // The fiber takes the lock itself; it must be free while it runs.
    lk.unlock();
    SwitchToFiber(next);
    lk.lock();
  }
  run_done_ = true;
  return now_rel();
}

void Engine::MakeReadyLocked(Proc* p, SimTime t) {
  if (t < p->wake_time) {
    p->wake_time = t;
    p->seq = ++ready_seq_;
    EnqueueLocked(p);
  }
}

void Engine::EnqueueLocked(Proc* p) {
  if (p->done || p->running || p->wake_time == kNever) return;
  ready_.push(QEntry{p->wake_time, p->seq, p});
}

void Engine::PruneLocked() {
  while (!ready_.empty()) {
    const QEntry& e = ready_.top();
    if (!e.p->done && !e.p->running && e.seq == e.p->seq) return;
    ready_.pop();  // stale: the process was rescheduled under a newer seq
  }
}

Engine::Proc* Engine::PickNextLocked() {
  PruneLocked();
  if (ready_.empty()) return nullptr;
  Proc* p = ready_.top().p;
  ready_.pop();
  return p;
}

void Engine::DispatchLocked(Proc* p) {
  now_.store(std::max(now_rel(), p->wake_time), std::memory_order_release);
  current_ = p;
  p->running = true;
  ++switch_count_;
}

void Engine::SwitchOutLocked(std::unique_lock<std::mutex>& lk, Proc* self) {
  MERMAID_CHECK(current_ == self);
  if (self->wake_time != kNever) {
    // Fast resume: if this process's new (wake, seq) is still the global
    // minimum, the scheduler would pick it right back — skip the
    // enqueue/pick round trip and both context swaps.
    PruneLocked();
    const QEntry mine{self->wake_time, self->seq, self};
    if (ready_.empty() || QEntryGt{}(ready_.top(), mine)) {
      now_.store(std::max(now_rel(), self->wake_time),
                 std::memory_order_release);
      ++switch_count_;  // still one scheduling decision
      ++fast_resume_count_;
      return;
    }
  }
  self->running = false;
  EnqueueLocked(self);
  current_ = nullptr;
  // The Run() thread re-acquires the lock; a fiber must release it before
  // swapping out.
  lk.unlock();
  SwitchToScheduler(self, /*final_exit=*/false);
  lk.lock();
}

void Engine::InitiateShutdownLocked() {
  shutting_down_ = true;
  // Wake every blocked process so channel receives observe shutdown.
  for (Proc* p : procs_) {
    if (p->done || p->running) continue;
    if (p->wake_time > now_rel()) {
      p->wake_time = now_rel();
      p->seq = ++ready_seq_;
      EnqueueLocked(p);
    }
  }
}

void Engine::DeadlockLocked() {
  std::fprintf(stderr,
               "sim::Engine deadlock at t=%lld ns: all %d live processes "
               "blocked with no pending event\n",
               static_cast<long long>(now_rel()), live_total_);
  for (Proc* p : procs_) {
    if (!p->done) {
      std::fprintf(stderr, "  blocked: %s\n", p->name.c_str());
    }
  }
  std::abort();
}

// ---------------------------------------------------------------------------
// Fiber machinery.

void Engine::FiberEntry(Proc* p) {
  p->eng->FiberMain(p);
  std::abort();  // a finished fiber is never resumed
}

void Engine::CreateFiber(Proc* p) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t usable = (kFiberStackBytes + page - 1) & ~(page - 1);
  const std::size_t total = usable + page;  // + guard page at the low end
  void* base = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  MERMAID_CHECK_MSG(base != MAP_FAILED, "fiber stack mmap failed");
  MERMAID_CHECK(mprotect(base, page, PROT_NONE) == 0);
  p->stack_base = base;
  p->stack_total = total;
  p->stack_lo = static_cast<char*>(base) + page;
  p->stack_usable = usable;
  AsanUnpoisonStack(p->stack_lo, usable);
  // The frame mermaid_fiber_switch pops, lowest address first: FP control
  // state, r15, r14, r13, r12, rbx, rbp, return address. The fiber starts
  // with the creator's FP control state, as a thread inherits its parent's.
  // Its stack top is 16-byte aligned, so mermaid_fiber_start's call enters
  // FiberEntry with the ABI's alignment; rbp 0 ends frame-pointer walks.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpucw));
  auto* top = reinterpret_cast<std::uintptr_t*>(
      static_cast<char*>(p->stack_lo) + usable);
  const auto entry = reinterpret_cast<std::uintptr_t>(&Engine::FiberEntry);
  top[-1] = reinterpret_cast<std::uintptr_t>(&mermaid_fiber_start);
  top[-2] = 0;                                    // rbp
  top[-3] = 0;                                    // rbx
  top[-4] = reinterpret_cast<std::uintptr_t>(p);  // r12
  top[-5] = entry;                                // r13
  top[-6] = 0;                                    // r14
  top[-7] = 0;                                    // r15
  top[-8] = mxcsr | (std::uintptr_t{fpucw} << 32);
  p->sp = &top[-8];
}

void Engine::SwitchToFiber(Proc* p) {
  tls_proc = p;
  AsanStartSwitch(&fibers_->sched_fake, p->stack_lo, p->stack_usable);
  mermaid_fiber_switch(&fibers_->sched_sp, p->sp);
  AsanFinishSwitch(fibers_->sched_fake, nullptr, nullptr);
  tls_proc = nullptr;
}

void Engine::SwitchToScheduler(Proc* p, bool final_exit) {
  // On final exit pass nullptr so ASan releases this fiber's fake stack.
  AsanStartSwitch(final_exit ? nullptr : &p->asan_fake, fibers_->sched_lo,
                  fibers_->sched_sz);
  mermaid_fiber_switch(&p->sp, fibers_->sched_sp);
  AsanFinishSwitch(p->asan_fake, &fibers_->sched_lo, &fibers_->sched_sz);
}

void Engine::FiberMain(Proc* p) {
  // First entry: no fake stack to restore; record the scheduler thread's
  // stack bounds for the return switch.
  AsanFinishSwitch(nullptr, &fibers_->sched_lo, &fibers_->sched_sz);
  p->fn();
  p->fn = nullptr;  // release captures now, not at engine destruction
  {
    std::unique_lock<std::mutex> lk(mu_);
    p->done = true;
    p->running = false;
    p->wake_time = kNever;
    --live_total_;
    if (!p->daemon && --live_nondaemon_ == 0) InitiateShutdownLocked();
    current_ = nullptr;
  }
  SwitchToScheduler(p, /*final_exit=*/true);
}

// ---------------------------------------------------------------------------

std::string Engine::SchedulerReport() {
  std::unique_lock<std::mutex> lk(mu_);
  std::size_t live_chans = 0;
  for (const auto& w : chans_) {
    if (!w.expired()) ++live_chans;
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "engine: switches=%llu fast_resumes=%llu procs=%zu "
                "chans_live=%zu chans_created=%llu\n",
                static_cast<unsigned long long>(switch_count_),
                static_cast<unsigned long long>(fast_resume_count_),
                procs_.size(), live_chans,
                static_cast<unsigned long long>(chans_created_));
  return line;
}

}  // namespace mermaid::sim
