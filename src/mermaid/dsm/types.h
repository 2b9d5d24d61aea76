// Shared DSM types, configuration, and protocol opcodes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mermaid/base/time.h"
#include "mermaid/net/network.h"
#include "mermaid/net/reqrep.h"

namespace mermaid::dsm {

// Byte offset into the shared region. All hosts map the region at the same
// base (the paper's implementation choice), so a GlobalAddr is directly a
// "pointer" value; the pointer-relocation machinery still exists for hosts
// that would map it elsewhere.
using GlobalAddr = std::uint64_t;

// Index of a DSM page (GlobalAddr / dsm_page_size).
using PageNum = std::uint32_t;

enum class Access : std::uint8_t { kNone = 0, kRead = 1, kWrite = 2 };

// §2.4: the two extreme page-size algorithms.
enum class PageSizePolicy : std::uint8_t {
  kLargest,   // DSM page = max VM page size over all hosts
  kSmallest,  // DSM page = min VM page size over all hosts
};

struct SystemConfig {
  std::uint64_t region_bytes = 8u << 20;
  PageSizePolicy page_policy = PageSizePolicy::kLargest;
  // Nonzero forces the DSM page size instead of deriving it from the host
  // set's VM page sizes (e.g. an 8 KB DSM page on an all-Firefly cluster,
  // as in the paper's Table 4 whose testbed always included a Sun).
  std::uint32_t page_bytes_override = 0;
  net::Network::Config net;

  // Request-response tuning for DSM traffic. Lossless runs never time out;
  // loss-injection tests shrink the timeout and raise attempts.
  SimDuration call_timeout = Seconds(10);
  int call_max_attempts = 30;

  // Confirm-loss recovery: each manager periodically probes the requester of
  // any transfer that has been awaiting confirmation for too long.
  SimDuration janitor_period = Milliseconds(500);
  SimDuration confirm_probe_after = Seconds(1);

  // Grant-lease recovery: a busy manager entry whose requester is
  // unreachable (no confirm, no probe answer) is revoked after this long and
  // its pending queue re-drained. Safety requires the lease to exceed both
  // the longest single fault-path Call (timeout schedule x attempts — after
  // that the requester's reply channel is closed, so a replayed grant can
  // never be consumed) and the longest network partition a live requester
  // may sit behind mid-transfer.
  SimDuration grant_lease = Seconds(30);

  // Fault-path retry policy: a manager/owner Call that exhausts its
  // transport retries is retried this many whole rounds (with exponential
  // backoff from 50 ms, capped at 2 s) before the host aborts loudly.
  int fault_retry_limit = 8;

  // Ablation switches (all default to the paper's system).
  bool convert_enabled = true;          // heterogeneous data conversion
  bool partial_page_transfer = true;    // move only the allocated extent
  // Owner-side conversion cache: converted outgoing page images are kept
  // keyed by (page, version, representation class) and reused for repeat
  // read faults on unmodified pages, skipping both the codec work and the
  // modeled conversion delay. Invalidation is by construction: a write
  // bumps the version, so stale images can never be served.
  bool convert_cache = true;
  std::size_t convert_cache_capacity = 64;  // cached images per host (LRU)
  // Check every typed access against the coherence referee (tests).
  bool referee_check_access = false;

  // Structured protocol tracing (trace::Tracer). Off by default: with trace
  // false every hook reduces to a flag test, modeled times are identical,
  // and no memory is spent beyond the (empty) ring. The ring holds the
  // newest 65,536 events; oldest events are evicted first.
  bool trace = false;

  // --- crash-stop recovery (default OFF: knobs-off wire format and Table
  // 2/3/4 calibration are bit-identical; see DESIGN.md "Failure model") ---
  //
  // When on: every reqrep request/reply carries the sender's incarnation
  // number (+4 wire bytes each way) so zombie traffic from a previous life
  // is fenced; System::CrashAndRestartHost wipes the crashed host's page
  // table, conversion cache, and manager maps (crash-with-amnesia)
  // and the restarted manager rebuilds owner/copyset state from live hosts'
  // claims via kOpRecoveryQuery.
  bool crash_recovery = false;
  // What a recovering manager does when no live host holds a copy of one of
  // its pages (the sole copy died with the crash): kFatal aborts loudly —
  // data loss must never be silent — while kReinitZero re-initializes the
  // page to zeroes at version 0 and counts it under dsm.recovery_pages_lost.
  enum class LostPagePolicy : std::uint8_t { kFatal = 0, kReinitZero = 1 };
  LostPagePolicy lost_page_policy = LostPagePolicy::kFatal;

  // --- release consistency (default OFF: the paper's sequentially-
  // consistent write-invalidate protocol, Tables 2–4 bit-identical; see
  // DESIGN.md "Release consistency") --------------------------------------
  //
  // When on, write faults no longer invalidate the copyset: the faulting
  // host makes a local *twin* of the page and keeps writing. Every sync
  // operation is a release point — the host diffs each twin against its
  // working copy, ships the byte ranges to the page's home (its fixed
  // manager, which under RC is always the owner) as one kOpDiffFlush, and
  // publishes a write notice piggybacked on the kOpSync request. Acquiring
  // sync operations (P / EventWait / Barrier) return the notices recorded
  // since the client last looked, and the acquirer lazily invalidates its
  // stale read copies. Writes between acquire and release are locally
  // visible and remotely deferred. A host holds at most 128 twins (a write
  // fault past the cap flushes them early), and a twin at least half dirty
  // flushes as one whole-extent range.
  bool release_consistency = false;

  // --- directory scale-out (default kFixed: the paper's p % N manager
  // mapping, Tables 2–4 bit-identical; see DESIGN.md "Directory
  // scale-out") -----------------------------------------------------------
  //
  // kFixed:   page p is managed by host p mod N (the paper's scheme).
  // kSharded: pages are placed on a consistent-hash ring of
  //           N x directory_shards_per_host virtual manager shards, so
  //           stride-aliased page sets no longer melt one host and a crash
  //           loses only that host's shards.
  enum class DirectoryMode : std::uint8_t {
    kFixed = 0,
    kSharded = 1,
  };
  DirectoryMode directory_mode = DirectoryMode::kFixed;
  // Virtual shards per host on the consistent-hash ring (kSharded).
  std::uint32_t directory_shards_per_host = 8;
};

// Protocol opcodes (one Endpoint per host, shared with the sync module).
inline constexpr std::uint8_t kOpAlloc = 1;       // any -> host 0
inline constexpr std::uint8_t kOpTypeSet = 2;     // host 0 -> page manager
inline constexpr std::uint8_t kOpReadReq = 3;     // requester -> manager -> owner
inline constexpr std::uint8_t kOpWriteReq = 4;    // requester -> manager -> owner
inline constexpr std::uint8_t kOpInvalidate = 5;  // writer -> copyset member
inline constexpr std::uint8_t kOpConfirm = 6;     // requester -> manager (notify)
inline constexpr std::uint8_t kOpConfirmProbe = 7;  // manager -> requester
// Probe answers when the requester cannot confirm: kOpGrantReject disowns a
// grant the requester never completed (the manager revokes it and re-drains
// the queue); kOpGrantExtend refreshes the lease of a transfer still being
// processed. Both are notifies.
inline constexpr std::uint8_t kOpGrantReject = 8;   // requester -> manager
inline constexpr std::uint8_t kOpGrantExtend = 9;   // requester -> manager
inline constexpr std::uint8_t kOpSync = 10;       // sync client -> sync server
// 11-15 and 20 are unassigned: the numbering stays fixed so wire images (and
// the central server's kOpMax-relative opcodes) do not move. A message that
// arrives with an unassigned opcode is counted and dropped by the endpoint.

// Crash-stop recovery opcodes (only sent when SystemConfig::crash_recovery
// is on). kOpRecoveryQuery: a restarted manager asks every live host what
// it holds of the manager's pages; the reply carries per-page claims.
// kOpPageLost: a requester that discovered an amnesiac/reincarnated owner
// tells the page's manager so it can re-elect an owner from the copyset.
// kOpRecoveryDemote: a recovering manager tells a host to drop or downgrade
// a copy that lost the version/ownership conflict resolution (notify).
inline constexpr std::uint8_t kOpRecoveryQuery = 16;  // manager -> all hosts
inline constexpr std::uint8_t kOpPageLost = 17;       // requester -> manager
inline constexpr std::uint8_t kOpRecoveryDemote = 18; // manager -> holder (notify)
// Release-consistency diff flush (only sent when
// SystemConfig::release_consistency is on): a releasing writer ships its
// twin-vs-page byte-range diffs to the page's home for application to the
// master copy.
inline constexpr std::uint8_t kOpDiffFlush = 19;      // writer -> home
// Highest opcode number, for per-class stats iteration. A literal, not the
// last assigned opcode: the central backend's opcodes are kOpMax + 1 and
// kOpMax + 2, and their wire values must not move.
inline constexpr std::uint8_t kOpMax = 20;

// Role byte inside kOpReadReq/kOpWriteReq bodies: the same opcode serves
// the requester->manager leg and the forwarded manager->owner leg. Any other
// role is malformed and dropped.
inline constexpr std::uint8_t kToManager = 0;
inline constexpr std::uint8_t kToOwner = 1;

// Human-readable message-class name for an opcode (per-class wire counters
// in the endpoint and ReportStats).
inline const char* OpName(std::uint8_t op) {
  switch (op) {
    case kOpAlloc: return "alloc";
    case kOpTypeSet: return "type_set";
    case kOpReadReq: return "read_req";
    case kOpWriteReq: return "write_req";
    case kOpInvalidate: return "invalidate";
    case kOpConfirm: return "confirm";
    case kOpConfirmProbe: return "confirm_probe";
    case kOpGrantReject: return "grant_reject";
    case kOpGrantExtend: return "grant_extend";
    case kOpSync: return "sync";
    case kOpRecoveryQuery: return "recovery_query";
    case kOpPageLost: return "page_lost";
    case kOpRecoveryDemote: return "recovery_demote";
    case kOpDiffFlush: return "diff_flush";
    default: return "other";
  }
}

}  // namespace mermaid::dsm
