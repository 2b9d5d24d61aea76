// Coherence referee: an out-of-band invariant checker.
//
// The referee sees every page-state transition of every host through direct
// in-process calls (no protocol messages) and asserts the MRSW invariants Li's
// algorithm guarantees:
//   - at most one host holds write access to a page at any instant;
//   - a host is granted write access only when no other host holds any copy;
//   - every valid copy carries the current committed version of the page.
// Tests may additionally route every typed access through CheckAccess.
//
// The referee is a verification aid, not part of the DSM system: the
// protocol never reads from it.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "mermaid/dsm/types.h"
#include "mermaid/net/network.h"

namespace mermaid::dsm {

class CoherenceReferee {
 public:
  // Switches the referee to release-consistency legality rules
  // (SystemConfig::release_consistency): reads are legal through any valid
  // copy at or below the committed version (staleness is resolved lazily at
  // acquire), and writes are legal on any host holding a live twin
  // (registered via OnRcTwin) — writes between acquire and release are
  // locally visible and remotely deferred, so the sole-writer and
  // exact-version checks of the SC mode do not apply. Install, crash, and
  // reinit invariants are unchanged.
  void SetRelaxed(bool on);
  // Host `h` twinned `page` for deferred writes (h must hold a valid copy).
  void OnRcTwin(net::HostId h, PageNum page);
  // The home applied a flushed diff: the committed version advances.
  void OnRcFlush(net::HostId h, PageNum page, std::uint64_t version);
  // Host `h` released its twin on `page` (flush complete); if `kept_copy`
  // it retains a read copy, otherwise it no longer holds the page.
  void OnRcRelease(net::HostId h, PageNum page, bool kept_copy);

  // Host `h` installed (or refreshed) a copy at `version` with `access`.
  void OnInstall(net::HostId h, PageNum page, std::uint64_t version,
                 Access access);
  // Host `h` was granted write access (version becomes `version`).
  void OnWriteGrant(net::HostId h, PageNum page, std::uint64_t version);
  // Host `h` downgraded its copy to read-only.
  void OnDowngrade(net::HostId h, PageNum page);
  // Host `h` dropped its copy.
  void OnInvalidate(net::HostId h, PageNum page);
  // Host `h` crashed with amnesia: every copy (and write grant) it held
  // ceases to exist. MRSW invariants must keep holding for the survivors.
  void OnHostCrash(net::HostId h);
  // A recovering manager re-initialized a lost page to zeroes: `h` becomes
  // the sole holder at `version` (the reinit-zero lost-page policy).
  void OnReinit(net::HostId h, PageNum page, std::uint64_t version);
  // A typed access on host `h` with this access level and local version.
  void CheckAccess(net::HostId h, PageNum page, std::uint64_t local_version,
                   Access access) const;

 private:
  struct PageState {
    // Some event named the page. CheckAccess rejects an untracked page.
    bool tracked = false;
    std::uint64_t version = 0;
    std::set<net::HostId> holders;           // hosts with a valid copy
    std::optional<net::HostId> writer;       // host with write access
    // Every holder died in a crash. The next install re-establishes the
    // lineage at whatever version the surviving (possibly retained, hence
    // older) image carries, so the version-monotonicity check is suspended
    // for exactly that install.
    bool orphaned = false;
    // Relaxed mode: hosts with a live twin (write-legal until release).
    std::set<net::HostId> rc_writers;
  };

  // The state of `page`, tracked from now on. Caller holds mu_.
  PageState& TrackLocked(PageNum page);
  // The state of `page`, or nullptr if it is untracked. Caller holds mu_.
  const PageState* FindLocked(PageNum page) const;

  mutable std::mutex mu_;
  bool relaxed_ = false;
  std::vector<PageState> pages_;  // indexed by page, grown on first event
};

}  // namespace mermaid::dsm
