// The repository benchmark: three workloads driven through the Mermaid
// public API, timed end to end and (in the traced run) per call.
//
// Every call the benchmark makes into the library goes through a Caller,
// which measures its modeled duration (always) and, when spans are on, its
// host duration as a span. The simulated processes run one at a time inside
// sim::Engine, so the Recorder needs no locking of its own.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mermaid/dsm/system.h"
#include "mermaid/sim/engine.h"

namespace perfbench {

using namespace mermaid;
using Clock = std::chrono::steady_clock;

// What a call is, for accounting: application DSM accesses, allocation,
// sync operations, modeled compute, and the harness-level calls.
enum class Kind : std::uint8_t {
  kAccess,   // Host::Read / Write / ReadBlock / WriteBlock   (dsm)
  kAlloc,    // System::Alloc                                 (dsm)
  kSetup,    // System construction, Start                    (dsm)
  kSync,     // sync::Client SemInit / P / V                  (sync)
  kCompute,  // Host::Compute                                 (apps)
  kThread,   // one simulated application thread's body       (apps)
  kRun,      // Engine::Run                                   (sim)
  kDelay,    // Runtime::Delay                                (sim)
  kStats,    // System::GatherStats                           (net)
  kCodec,    // TypeRegistry::ConvertStrided                  (arch)
};
const char* LayerOf(Kind k);

struct Span {
  const char* name = "";
  Kind kind = Kind::kAccess;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::int32_t host = -1;  // simulated host, -1 for harness-level calls
  SimTime sim_start = 0, sim_end = 0;
  std::int64_t host_start_ns = 0, host_end_ns = 0;  // since Recorder start
};

// Per-iteration call accounting plus (optionally) the span log.
class Recorder {
 public:
  explicit Recorder(bool spans) : spans_on_(spans), t0_(Clock::now()) {}

  bool spans_on() const { return spans_on_; }
  std::int64_t HostNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
  }
  // Reserves a span id (0 when spans are off); ids order spans by opening.
  std::uint32_t Open() { return spans_on_ ? ++next_id_ : 0; }
  void Close(const Span& s) {
    if (spans_on_) spans_.push_back(s);
  }
  // Charges one completed call to the aggregates below.
  void Account(Kind k, SimDuration modeled, std::int64_t host_ns);

  const std::vector<Span>& spans() const { return spans_; }
  void DropSpans() { std::vector<Span>().swap(spans_); }

  // Aggregates (modeled ns; host ns only meaningful with spans on).
  std::int64_t ops = 0;  // DSM accesses + Alloc + sync calls
  std::int64_t sync_ops = 0;
  std::vector<double> blocked_ms;  // modeled latency of accesses that blocked
  SimDuration access_modeled = 0;
  std::int64_t hit_access_host_ns = 0;  // accesses that did not block
  SimDuration sync_modeled = 0;
  SimDuration compute_modeled = 0;

 private:
  bool spans_on_;
  Clock::time_point t0_;
  std::uint32_t next_id_ = 0;
  std::vector<Span> spans_;
};

// Issues one simulated thread's (or the harness's) calls into the library.
class Caller {
 public:
  Caller(Recorder& rec, sim::Runtime& rt, std::int32_t host,
         std::uint32_t parent)
      : rec_(rec), rt_(rt), host_(host), parent_(parent) {}

  // Times `f()` as one call named `name`.
  template <typename F>
  auto operator()(const char* name, Kind kind, F&& f) {
    return Call(name, kind, [&](std::uint32_t) { return f(); });
  }
  // Times `f(child)`, where `child` issues calls parented by this one.
  template <typename F>
  auto Scope(const char* name, Kind kind, F&& f) {
    return Call(name, kind, [&](std::uint32_t id) {
      Caller child(rec_, rt_, host_, id);
      return f(child);
    });
  }

  std::uint32_t parent() const { return parent_; }

 private:
  template <typename F>
  auto Call(const char* name, Kind kind, F&& f) {
    Span s;
    s.name = name;
    s.kind = kind;
    s.id = rec_.Open();
    s.parent = parent_;
    s.host = host_;
    s.sim_start = rt_.Now();
    if (rec_.spans_on()) s.host_start_ns = rec_.HostNs();
    if constexpr (std::is_void_v<decltype(f(s.id))>) {
      f(s.id);
      Finish(s);
    } else {
      auto r = f(s.id);
      Finish(s);
      return r;
    }
  }
  void Finish(Span& s) {
    s.sim_end = rt_.Now();
    if (rec_.spans_on()) s.host_end_ns = rec_.HostNs();
    rec_.Account(s.kind, s.sim_end - s.sim_start,
                 s.host_end_ns - s.host_start_ns);
    rec_.Close(s);
  }

  Recorder& rec_;
  sim::Runtime& rt_;
  std::int32_t host_;
  std::uint32_t parent_;
};

// Spawns `body` as application thread `name` on host `h`. The thread's body
// is one span (`label`, kind kThread) under `parent`, and it parents every
// call the body makes through its Caller.
void SpawnTraced(dsm::System& sys, Recorder& rec, net::HostId h,
                 const std::string& name, const char* label,
                 std::uint32_t parent,
                 std::function<void(dsm::Host&, Caller&)> body);

// ---------------------------------------------------------------------------
// Workloads.

// What a workload's threads report back: the parallel phase's modeled
// duration and the verification tally.
struct Outcome {
  bool done = false;
  SimDuration elapsed = 0;
  std::int64_t checked = 0;     // values compared against an expected value
  std::int64_t mismatches = 0;  // of those, how many were wrong
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::vector<const arch::ArchProfile*> Hosts() const = 0;
  virtual dsm::SystemConfig Config() const = 0;
  // Spawns the master thread (after Start, before Run); it fills *out before
  // the engine run completes.
  virtual void Spawn(dsm::System& sys, Recorder& rec, std::uint32_t parent,
                     Outcome* out) = 0;
};

// Builds a workload by name for one seed (inputs are generated here, once,
// outside every timed region). Returns nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

// ---------------------------------------------------------------------------
// Layer ceilings (traced run): GB/s of memcpy, a plain bswap loop, and
// TypeRegistry::ConvertStrided per basic type on page-sized buffers.
struct Ceilings {
  double memcpy_gbps = 0;
  double bswap_gbps = 0;
  std::map<std::string, double> codec_gbps;  // int, short, float, double
  std::int64_t round_trip_mismatches = 0;    // codec round trips that differ
};
Ceilings MeasureCeilings(Recorder& rec, std::uint64_t seed);

// Writes the spans as a Chrome trace-event file (Perfetto-viewable).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
