// Per-host DSM engine: Li's MRSW write-invalidate protocol with fixed
// distributed managers, extended for heterogeneity (Mermaid, §2).
//
// Role split, mirroring the paper:
//   - Fault path (application process): detects insufficient access on a
//     typed load/store, pays the Table-1 fault-handling cost, obtains a
//     transfer grant from the page's manager (a protocol Call, or a direct
//     state operation when the faulting host manages the page), fetches the
//     page from the owner, converts it if the owner's representation
//     differs, performs write invalidation by multicast, and confirms the
//     completed transfer to the manager.
//   - Manager role (fixed: page p is managed by host p mod N): knows owner
//     and copyset, serializes transfers per page (busy + pending queue, as
//     in Li's algorithm — the entry stays locked until the requester's
//     confirmation), and never blocks: remote requests are forwarded or
//     answered inline, local requests are granted through a channel.
//   - Owner role (request handler): serves page data (only the allocated
//     extent when partial transfer is on), downgrading itself on read
//     fetches and relinquishing on write fetches.
//
// Page-size policies (§2.4): the coherence unit is the DSM page; a fault on
// a host whose VM page is larger acquires every DSM page of the enclosing
// VM page (the "smallest page size" algorithm's grouped fill), and a host
// whose VM page is smaller gains all its VM pages when the single DSM page
// arrives (the "largest page size" algorithm's grouping).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "mermaid/arch/arch.h"
#include "mermaid/arch/scalar.h"
#include "mermaid/arch/type_registry.h"
#include "mermaid/base/buffer.h"
#include "mermaid/base/stats.h"
#include "mermaid/base/zero_mapping.h"
#include "mermaid/dsm/directory.h"
#include "mermaid/dsm/page_table.h"
#include "mermaid/dsm/referee.h"
#include "mermaid/dsm/types.h"
#include "mermaid/net/reqrep.h"
#include "mermaid/sim/runtime.h"
#include "mermaid/sync/sync.h"

namespace mermaid::dsm {

class Host {
 public:
  // `placement` is the System's shared page -> base-manager map; it must
  // outlive the Host.
  Host(sim::Runtime& rt, net::Network& net, const SystemConfig& cfg,
       const arch::TypeRegistry& registry, net::HostId self,
       const arch::ArchProfile* profile, const Placement& placement,
       std::uint32_t page_bytes, CoherenceReferee* referee);

  // Registers protocol handlers and starts the receive daemon.
  void Start();

  // --- application-facing API (call from processes on this host) ---------

  // Typed access to shared memory. Representation-faithful: the value is
  // decoded from / encoded into this host's native memory image. Faults in
  // the page (group) transparently when access is insufficient.
  template <typename T>
  T Read(GlobalAddr addr) {
    const PageNum p = PageOf(addr);
    for (;;) {
      EnsureAccess(p, Access::kRead);
      std::lock_guard<std::mutex> lk(state_mu_);
      // Access can be lost between EnsureAccess and this lock (an
      // invalidation, or a release-consistency flush demoting the page);
      // loading without it would read through a revoked mapping.
      if (ptable_.Local(p).access < Access::kRead) continue;
      if (cfg_.referee_check_access && referee_ != nullptr) {
        referee_->CheckAccess(self_, p, ptable_.Local(p).version,
                              Access::kRead);
      }
      return arch::LoadScalar<T>(*profile_, mem_.data() + addr);
    }
  }

  template <typename T>
  void Write(GlobalAddr addr, T value) {
    const PageNum p = PageOf(addr);
    for (;;) {
      EnsureAccess(p, Access::kWrite);
      std::lock_guard<std::mutex> lk(state_mu_);
      if (ptable_.Local(p).access < Access::kWrite) continue;
      if (cfg_.referee_check_access && referee_ != nullptr) {
        referee_->CheckAccess(self_, p, ptable_.Local(p).version,
                              Access::kWrite);
      }
      arch::StoreScalar<T>(*profile_, mem_.data() + addr, value);
      return;
    }
  }

  // Bulk typed access: semantically identical to element-wise Read/Write
  // loops (same faults, same page-granularity coherence, same
  // representation decoding) but amortizes the access-check cost — the
  // simulated equivalent of a tight load/store loop of native instructions.
  // Elements must not straddle DSM pages (the typed allocator guarantees
  // power-of-two strides, so they never do).
  template <typename T>
  void ReadBlock(GlobalAddr addr, std::size_t count, T* out) {
    while (count > 0) {
      const PageNum p = PageOf(addr);
      EnsureAccess(p, Access::kRead);
      const GlobalAddr page_end =
          (static_cast<GlobalAddr>(p) + 1) * page_bytes_;
      const std::size_t n =
          std::min<std::size_t>(count, (page_end - addr) / sizeof(T));
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        if (ptable_.Local(p).access < Access::kRead) continue;  // refault
        if (cfg_.referee_check_access && referee_ != nullptr) {
          referee_->CheckAccess(self_, p, ptable_.Local(p).version,
                                Access::kRead);
        }
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = arch::LoadScalar<T>(*profile_,
                                       mem_.data() + addr + i * sizeof(T));
        }
      }
      out += n;
      addr += n * sizeof(T);
      count -= n;
    }
  }

  template <typename T>
  void WriteBlock(GlobalAddr addr, const T* in, std::size_t count) {
    while (count > 0) {
      const PageNum p = PageOf(addr);
      EnsureAccess(p, Access::kWrite);
      const GlobalAddr page_end =
          (static_cast<GlobalAddr>(p) + 1) * page_bytes_;
      const std::size_t n =
          std::min<std::size_t>(count, (page_end - addr) / sizeof(T));
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        if (ptable_.Local(p).access < Access::kWrite) continue;  // refault
        if (cfg_.referee_check_access && referee_ != nullptr) {
          referee_->CheckAccess(self_, p, ptable_.Local(p).version,
                                Access::kWrite);
        }
        for (std::size_t i = 0; i < n; ++i) {
          arch::StoreScalar<T>(*profile_,
                               mem_.data() + addr + i * sizeof(T), in[i]);
        }
      }
      in += n;
      addr += n * sizeof(T);
      count -= n;
    }
  }

  // Models `units` of application work on this host's CPU.
  void Compute(double units, bool floating_point = false);

  // Pre-faults a page for the given access (the paper's applications touch
  // data in page units anyway; this is a convenience for benchmarks).
  void Touch(GlobalAddr addr, Access access) {
    EnsureAccess(PageOf(addr), access);
  }

  PageNum PageOf(GlobalAddr addr) const {
    return static_cast<PageNum>(addr / page_bytes_);
  }

  net::HostId id() const { return self_; }
  const arch::ArchProfile& profile() const { return *profile_; }
  std::uint32_t page_bytes() const { return page_bytes_; }
  base::StatsRegistry& stats() { return stats_; }
  net::Endpoint& endpoint() { return endpoint_; }
  sim::Runtime& runtime() { return rt_; }

  // Attaches the system-wide protocol tracer (and propagates it to this
  // host's endpoint / fragmentation layers).
  void SetTracer(trace::Tracer* tracer) {
    tracer_ = tracer;
    endpoint_.SetTracer(tracer);
  }

  // Test hooks.
  LocalPageEntry LocalEntrySnapshot(PageNum p);
  // Release-consistency test hook: live twin count.
  std::size_t RcTwinCount();

  // --- release consistency (System wires these as the sync client's
  // --- release/acquire hooks; see SystemConfig::release_consistency) ------

  // Release point: flushes every twin (and home-dirty page) to its home and
  // returns the accumulated write notices to publish with the sync op.
  std::vector<sync::WriteNotice> RcDrainNotices();
  // Acquire point: invalidates the local read copies made stale by the
  // notices. `reset` means the server's bounded notice log was truncated
  // past this client's cursor — every non-twinned, non-home read copy is
  // dropped conservatively.
  void RcApplyNotices(const std::vector<sync::WriteNotice>& notices,
                      bool reset);

  // Used by the System's allocation worker to push authoritative type and
  // extent information to this host in its manager role. A page this host
  // does not manage (or one past the region) is ignored.
  void ApplyTypeSet(PageNum p, arch::TypeId type, std::uint32_t alloc_bytes);

  // Transfers granted in this host's manager role over its lifetime (plain
  // counter, not a stats key, so knobs-off registries stay bit-identical).
  // Feeds bench_directory's manager-load Gini coefficient.
  std::uint64_t ManagerGrantsTotal();

  // Quiescence accounting for chaos tests: adds this host's still-busy
  // manager entries and queued transfers to the counters.
  void CountManagerLoad(std::uint64_t* busy, std::uint64_t* pending);

 private:
  friend class System;

  struct FetchReply {
    std::uint64_t op_id = 0;
    std::uint64_t data_version = 0;
    std::uint64_t new_version = 0;
    net::HostId owner = 0;
    arch::TypeId type = 0;
    std::uint32_t alloc_bytes = 0;
    std::vector<net::HostId> to_invalidate;
    bool has_data = false;
    // Representation class the payload is encoded in (arch::RepClassByte).
    // When the owner pre-converted for the requester this is the
    // requester's class and the receiver skips the codec.
    std::uint8_t data_rep = 0;
    bool sender_converted = false;
    bool from_cache = false;  // served from the owner's conversion cache
    // The addressed host restarted with amnesia and no longer holds the
    // page: the requester must report the loss to the manager and retry.
    bool owner_lost = false;
    base::BufferChain data;
  };

  // One protocol round's outcome: kDone re-checks access, kRetry backs off
  // and refaults, kShutdown unwinds the thread.
  enum class FaultOutcome { kDone, kRetry, kShutdown };

  // Per-VM-fault telemetry: protocol messages on the critical path and
  // blocking request round trips, summed over the fault's DSM pages. Feeds
  // the dsm.vm_fault_hops / dsm.vm_fault_rtts histograms.
  struct FaultTelemetry {
    std::int64_t hops = 0;
    std::int64_t rtts = 0;
  };

  // Outcome of CompleteTransfer: kFenced means this host crashed while the
  // transfer was in flight — the grant must NOT be confirmed (the wiped
  // state cannot back it) and the caller simply refaults. kRejected means
  // the grant arrived without data but no local copy exists to back it (the
  // manager trusted a claim that a crash or revoke made stale); the caller
  // must free the grant at the manager and refault with the truth.
  enum class TransferResult { kOk, kFenced, kRejected, kShutdown };

  // --- fault path (fault.cc) -----------------------------------------------
  void EnsureAccess(PageNum p, Access needed);
  // One VM-level fault: acquires every DSM page of the enclosing VM page
  // that lacks `needed` access.
  void FaultGroup(PageNum p, Access needed);
  // One DSM-page protocol round. The `life` parameter of the fault helpers
  // is the host life (crash count) captured when the round started;
  // CompleteTransfer fences the install when it no longer matches (the
  // thread is a pre-crash zombie).
  void FaultOne(PageNum p, Access needed, FaultTelemetry& telem);
  FaultOutcome FaultViaLocalManager(PageNum p, bool is_write,
                                    FaultTelemetry& telem, std::uint32_t life);
  FaultOutcome FaultViaRemoteManager(PageNum p, bool is_write,
                                     FaultTelemetry& telem, std::uint32_t life);
  // Install + invalidate + (write-)grant; shared tail of both fault variants.
  TransferResult CompleteTransfer(PageNum p, bool is_write,
                                  const FetchReply& reply, std::uint32_t life);
  // True when the transfer (p, op_id) that a fault round began in `life`
  // must not be installed: this host crashed since (the round is a
  // pre-crash zombie) or disowned the op. Caller holds state_mu_.
  bool FencedLocked(PageNum p, std::uint64_t op_id, std::uint32_t life) const;
  // The locked write-finalize step (write access, version bump, referee
  // write grant). Caller must have completed the page's invalidations.
  // False when fenced by a crash (caller skips the confirm).
  bool FinalizeWrite(PageNum p, const FetchReply& reply, std::uint32_t life);
  // Reliable write invalidation: re-multicasts to unacked targets until all
  // ack (bounded rounds; aborts loudly when exhausted). False on shutdown.
  // `op_id`/`parent_ev` only feed the trace (the install event that caused
  // this invalidation round).
  bool InvalidateCopies(PageNum p, const std::vector<net::HostId>& hosts,
                        std::uint64_t op_id, std::uint64_t parent_ev);
  // The bounded retry loop of write invalidation and manager recovery:
  // multicasts `body` under `op` until every host in `dsts` has answered,
  // with FaultBackoff between rounds, aborting with `what` past
  // fault_retry_limit rounds. Under crash recovery, hosts that are down are
  // dropped first. Hooks (either may be empty): `sending(round, dsts)`
  // before each multicast, `answered(host, body)` per answer. False on
  // shutdown, or once this host has crashed since `life` (if given).
  bool CallUntilAnswered(
      std::vector<net::HostId> dsts, std::uint8_t op, const net::Body& body,
      const char* what, std::optional<std::uint32_t> life,
      const std::function<void(int, const std::vector<net::HostId>&)>&
          sending,
      const std::function<void(net::HostId, const base::BufferChain&)>&
          answered);
  // Capped exponential backoff before retry round `round` (>= 1); the
  // per-Call retransmits already jitter, so rounds need no randomness.
  static SimDuration FaultBackoff(int round);

  // --- release consistency (rc.cc) ----------------------------------------
  // Outcome of RcTwinPage: kOk = twin made (or home page marked dirty) and
  // write access granted locally; kNoCopy = the read copy vanished between
  // the read fault and the twin attempt (caller refaults); kCapacity = the
  // twin cap is reached (caller flushes and retries).
  enum class RcTwinResult { kOk, kNoCopy, kCapacity };
  // Write fault under release consistency: instead of a global invalidate,
  // snapshot the page into a twin (or, when this host IS the page's home,
  // mark it home-dirty — the working copy is the master, no buffer needed)
  // and take write access locally. Requires a valid read copy.
  RcTwinResult RcTwinPage(PageNum p);
  // Release: diffs every twin against the working copy, ships the dirty
  // ranges to each page's home (kOpDiffFlush), commits home-dirty pages in
  // place, demotes the pages back to read access, and appends the resulting
  // write notices to rc_pending_notices_.
  void RcFlushTwins();
  // Commits one flush at the home: bumps the manager + local version,
  // notifies the referee. Stale cached conversions are dropped when
  // `drop_cache`; HandleDiffFlush passes false and instead patches the
  // cached whole-page images with the (converted) diff ranges, so small
  // diffs neither evict nor miss the cache. Caller holds state_mu_ and has
  // verified the entry is not busy. Returns {new, prev} versions.
  std::pair<std::uint64_t, std::uint64_t> RcCommitFlushLocked(
      PageNum p, net::HostId origin, bool drop_cache = true);
  // Re-keys every cached conversion of page p from `prev_version` to
  // `new_version`, patching the flushed byte ranges (already applied to the
  // master copy in this host's representation) into each image via the pure
  // codec. Entries at other versions are dropped. Caller holds state_mu_.
  void PatchConvertCacheLocked(PageNum p, std::uint64_t prev_version,
                               std::uint64_t new_version,
                               const std::vector<std::pair<std::uint32_t,
                                                           std::uint32_t>>&
                                   ranges);
  // Home-side handler for a remote kOpDiffFlush (rx daemon; never blocks):
  // busy-rejects while a transfer is in flight (the writer backs off and
  // retries), deduplicates retransmitted flushes by (origin, flush seq),
  // converts the diff payload when the writer's representation differs,
  // and applies the ranges to the master copy.
  void HandleDiffFlush(net::RequestContext ctx);

  // --- manager role (manager.cc) -------------------------------------------
  ManagerGrant BuildGrantLocked(PageNum p, net::HostId requester,
                                bool is_write, bool has_copy);
  // Makes `m` (page p's entry) busy with the transfer `op_id` and, for a
  // remote requester, files p in busy_watch_ for the janitor. Every site
  // that sets ManagerEntry::busy goes through here. Caller holds state_mu_.
  void MarkBusyLocked(PageNum p, ManagerEntry& m, std::uint64_t op_id,
                      net::HostId requester, bool is_write,
                      std::uint64_t new_version);
  // Processes one pending transfer (issues grant / forward / direct serve).
  void ManagerIssue(PageNum p, PendingTransfer t);
  void ManagerCommit(PageNum p, std::uint64_t op_id, net::HostId requester,
                     bool is_write);
  void ManagerDrain(PageNum p);
  // Revokes the in-flight grant (p, op_id) if it is still the busy one:
  // frees the entry with owner/copyset/version unchanged and re-drains the
  // pending queue. Used by grant rejects, lease expiry, and the local fault
  // path when its owner fetch times out.
  void ManagerRevoke(PageNum p, std::uint64_t op_id);

  // --- crash-stop recovery (recovery.cc) -----------------------------------
  // Crash-with-amnesia: resets the endpoint (new incarnation, zombie calls
  // fenced), wipes the page table, conversion cache, memory image, and
  // all fault-path bookkeeping, and marks the manager role as
  // recovering. Parked fault waiters are woken so their threads refault.
  void CrashWipe();
  // Manager-state reconstruction after a restart: queries every live host
  // for its page claims (kOpRecoveryQuery), rebuilds owner/copyset/version
  // for each managed page, demotes duplicate or stale writers, adopts
  // claimed in-flight transfers, and applies SystemConfig::lost_page_policy
  // when the sole copy of a page died. Blocking; run from a recovery daemon.
  void RunManagerRecovery();
  // Shared dead-owner repair: removes `dead_owner` from page p's manager
  // entry and promotes a surviving copy (or applies the lost-page policy).
  // No-op when the report is stale (current owner differs). `op_id` is the
  // reporter's observed in-flight grant (0 = none), cleared if still busy.
  // `drain` re-issues the pending queue after the repair; pass false when
  // the caller is itself about to issue a transfer for this page.
  void HandlePageLostLocal(PageNum p, std::uint64_t op_id,
                           net::HostId dead_owner, bool drain = true);
  // The lost-page policy's reinit (kReinitZero): this host becomes owner
  // and sole holder of page p, zeroed, at version 0. Caller holds state_mu_.
  void ReinitLostPageLocked(PageNum p, ManagerEntry& m);

  // --- owner role (manager.cc) ---------------------------------------------
  // Serves the transfer `grant` against the local copy at `data_version`:
  // fills the reply fields that depend on the local state and attaches the
  // data when the requester holds no copy (pre-converted for its
  // representation class when the conversion cache is enabled). State
  // transitions happen under state_mu_; the page copy, codec work, and
  // encode run outside it.
  net::Body EncodeServeReply(PageNum p, net::HostId requester, bool is_write,
                             const ManagerGrant& grant,
                             std::uint64_t data_version);

  // --- handlers (run in the endpoint's rx daemon; never block) ------------
  // Manager and owner handlers (manager.cc).
  void HandleTransferReq(net::RequestContext ctx, bool is_write);
  void HandleOwnerFetch(net::RequestContext ctx, bool is_write);
  void HandleInvalidate(net::RequestContext ctx);
  void HandleConfirm(net::RequestContext ctx);
  void HandleConfirmProbe(net::RequestContext ctx);
  void HandleGrantReject(net::RequestContext ctx);
  void HandleGrantExtend(net::RequestContext ctx);
  // Crash-recovery handlers (recovery.cc).
  void HandleRecoveryQuery(net::RequestContext ctx);
  void HandleRecoveryDemote(net::RequestContext ctx);
  void HandlePageLost(net::RequestContext ctx);

  // --- data path: conversion, wire codecs, bounded FIFOs (data_path.cc) ---
  // Charges the receiver-side modeled conversion delay and stats for an
  // incoming page; runs the real codec (in place on `data`) only when
  // `run_codec` — when the owner already converted, only the calibrated
  // delay is paid here so Table 3/4 cells are independent of where the
  // codec physically runs.
  void ConvertIncoming(PageNum p, std::span<std::uint8_t> data,
                       arch::TypeId type, const arch::ArchProfile& from,
                       bool run_codec);
  // Converts `extent` bytes of element slots in place from `from`'s
  // representation to `to`'s; returns the lossy element conversions. Slots
  // are the power-of-two stride the allocator lays elements out on; for
  // basic types stride == size and non-power-of-two types simply convert at
  // the slot stride — one bulk call either way.
  std::int64_t ConvertSlots(arch::TypeId type, std::span<std::uint8_t> data,
                            std::uint32_t extent, const arch::ArchProfile& from,
                            const arch::ArchProfile& to) const;
  // Drops every conversion-cache entry for page p (counted as evictions).
  // Caller holds state_mu_.
  void DropConvertCacheLocked(PageNum p);
  void RecordCompleted(PageNum p, std::uint64_t op_id, bool is_write);
  // Adds {p, op_id} to the fenced set (bounded FIFO) so a decoded-but-not-
  // installed grant is discarded instead of installed. Caller holds state_mu_.
  void FenceOpLocked(PageNum p, std::uint64_t op_id);
  // The manager -> owner leg of a transfer (role kToOwner), carrying the
  // grant; HandleOwnerFetch decodes it.
  static net::Body EncodeOwnerFetch(PageNum p, const ManagerGrant& grant);
  net::Body EncodeFetchReply(const FetchReply& r) const;
  // Nullopt when `body` is not a fetch reply. Replies match their call on
  // req_id alone, so any host on the wire can complete a pending call.
  std::optional<FetchReply> DecodeFetchReply(
      const base::BufferChain& body) const;
  // Timeout and attempts of every DSM protocol call (SystemConfig).
  net::Endpoint::CallOpts DsmCallOpts() const;

  // Trace hook: records one protocol event on this host at the current sim
  // time; returns the event id (0 when tracing is off).
  std::uint64_t TraceEv(trace::EventKind kind, PageNum p, std::uint64_t op,
                        std::uint64_t parent = 0, std::int64_t a0 = 0,
                        std::int64_t a1 = 0) {
    if (tracer_ == nullptr || !tracer_->enabled()) return 0;
    return tracer_->Record(kind, self_, rt_.Now(), p, op, parent, a0, a1);
  }
  std::uint64_t TraceParent(const trace::CausalKey& key) const {
    if (tracer_ == nullptr || !tracer_->enabled()) return 0;
    return tracer_->Parent(key);
  }
  void TraceBind(const trace::CausalKey& key, std::uint64_t ev) {
    if (tracer_ != nullptr && ev != 0) tracer_->Bind(key, ev);
  }

  sim::Runtime& rt_;
  net::Network& net_;
  const SystemConfig& cfg_;
  const arch::TypeRegistry& registry_;
  net::HostId self_;
  const arch::ArchProfile* profile_;
  std::uint16_t num_hosts_;
  std::uint32_t page_bytes_;
  CoherenceReferee* referee_;
  net::Endpoint endpoint_;
  trace::Tracer* tracer_ = nullptr;

  // Guards everything below; never held across a blocking operation.
  std::mutex state_mu_;
  // Representation-faithful memory image of the whole region. Only the OS
  // pages this host has written hold frames. Its address never changes, a
  // crash wipe included: CompleteTransfer converts in place in it, and the
  // owner's serve copy reads it, outside state_mu_.
  base::ZeroMapping mem_;
  PageTable ptable_;
  Directory dir_;  // manager placement + this host's manager entries
  // Lifetime grants in the manager role; plain member (not a stats key) so
  // knobs-off stat registries stay bit-identical. Guarded by state_mu_.
  std::uint64_t mgr_grants_total_ = 0;
  // Pages whose manager entry went busy for a remote requester: a superset
  // of the entries the janitor chases, so a tick walks these instead of
  // every managed entry. The janitor drops pages whose entry is idle or
  // locally requested; a crash wipe clears the set with the entries.
  // Guarded by state_mu_.
  std::set<PageNum> busy_watch_;
  // Local fault coalescing: threads faulting a page another thread is
  // already fetching wait here and re-check.
  std::map<PageNum, std::vector<sim::Chan<bool>>> fault_waiters_;
  std::map<PageNum, bool> fault_inflight_;
  // Completed transfers for confirm-probe replay (bounded FIFO): whether
  // each was a write. The replayed confirm goes to the probing manager.
  std::map<std::pair<PageNum, std::uint64_t>, bool> completed_;
  std::deque<std::pair<PageNum, std::uint64_t>> completed_order_;
  // Grants this host is processing right now (reply decoded, confirm not yet
  // sent): a confirm-probe for one of these answers "still working"
  // (kOpGrantExtend) instead of disowning the grant. The value lets a
  // restarted manager adopt the claimed transfer during reconstruction.
  struct InflightOp {
    bool is_write = false;
    std::uint64_t new_version = 0;
  };
  std::map<std::pair<PageNum, std::uint64_t>, InflightOp> inflight_ops_;
  // Grants this host disowned in answer to a confirm-probe. A late reply
  // carrying a fenced op must be discarded — the manager has revoked it, and
  // installing it would put two writers on the page (bounded FIFO).
  std::set<std::pair<PageNum, std::uint64_t>> fenced_;
  std::deque<std::pair<PageNum, std::uint64_t>> fenced_order_;
  std::uint64_t op_counter_ = 0;
  // Crash-recovery state (guarded by state_mu_):
  //  - life_: crash count; fault threads capture it per round and their
  //    installs are fenced when it moved (pre-crash zombies).
  //  - recovering_: set from crash until manager reconstruction finishes;
  //    manager-role requests are dropped (requesters retry) meanwhile.
  //  - op_epoch_: this host's incarnation, folded into the high bits of
  //    issued op ids so a reincarnated manager never reuses a live grant id
  //    (op_counter_ itself restarts from zero — true amnesia).
  std::uint32_t life_ = 0;
  bool recovering_ = false;
  std::uint32_t op_epoch_ = 0;
  // Owner-side conversion cache: converted outgoing page images keyed by
  // (page, version, representation class), LRU-bounded (a hit promotes the
  // key to the back of the eviction order). Version keying makes stale hits
  // impossible; entries are also dropped eagerly on invalidation and local
  // write commit. Guarded by state_mu_.
  struct ConvertCacheKey {
    PageNum page = 0;
    std::uint64_t version = 0;
    std::uint8_t rep = 0;
    auto operator<=>(const ConvertCacheKey&) const = default;
  };
  std::map<ConvertCacheKey, base::Buffer> convert_cache_;
  std::deque<ConvertCacheKey> convert_cache_order_;
  // Release-consistency state (guarded by state_mu_):
  //  - rc_twins_: pages this host is write-buffering; `base` is the page
  //    image at twin time, diffed against the working copy at release.
  //  - rc_home_dirty_: pages managed here that this host wrote in place
  //    (the home's working copy IS the master; release commits a version
  //    bump with zero wire bytes).
  //  - rc_pending_notices_: write notices produced by flushes, awaiting the
  //    next sync op (capacity-triggered flushes have no sync op to ride).
  //  - rc_applied_: home-side flush idempotence — a release re-issued as a
  //    fresh call after a timeout must not double-apply its diffs. Keyed
  //    (page, origin, flush seq), bounded FIFO.
  struct RcTwin {
    std::vector<std::uint8_t> base;
    std::uint64_t base_version = 0;
  };
  std::map<PageNum, RcTwin> rc_twins_;
  std::set<PageNum> rc_home_dirty_;
  std::vector<sync::WriteNotice> rc_pending_notices_;
  std::uint64_t rc_flush_seq_ = 0;
  struct RcApplied {
    std::uint64_t new_version = 0;
    std::uint64_t prev_version = 0;
  };
  using RcFlushKey = std::tuple<PageNum, net::HostId, std::uint64_t>;
  std::map<RcFlushKey, RcApplied> rc_applied_;
  std::deque<RcFlushKey> rc_applied_order_;
  // Earliest-free times of this host's CPUs (application Compute calls).
  std::vector<SimTime> cpu_busy_until_;

  base::StatsRegistry stats_;
};

}  // namespace mermaid::dsm
