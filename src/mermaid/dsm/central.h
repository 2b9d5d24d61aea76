// Central-server shared data: the second DSM algorithm.
//
// §2.1: "several DSM packages can be provided to the applications on the
// same system. Our analysis of the performance of applications using
// different shared data algorithms revealed that the correct choice of
// algorithm was often dictated by the memory access behavior of the
// application [16]." This is the classic central-server algorithm from
// Stumm & Zhou's survey: all shared data lives on one server host and every
// read or write is a request-response operation — no replication, no
// migration, no page faults, and no thrashing, but every access pays a
// network round trip.
//
// Heterogeneity: data is stored in the *server's* representation; clients
// encode/decode scalars with the server's architecture profile on each
// access, so no page-level conversion step exists at all.
//
// bench_algo_crossover sweeps access locality to show where each algorithm
// wins (page-based under locality; central-server under fine-grained
// scattered sharing).
#pragma once

#include <cstdint>
#include <mutex>
#include <span>

#include "mermaid/arch/arch.h"
#include "mermaid/arch/scalar.h"
#include "mermaid/base/check.h"
#include "mermaid/base/stats.h"
#include "mermaid/base/zero_mapping.h"
#include "mermaid/dsm/types.h"
#include "mermaid/net/reqrep.h"

namespace mermaid::dsm {

// Past kOpMax: the central backend shares each host's endpoint with the DSM
// opcode table and must never collide with it.
inline constexpr std::uint8_t kOpCentralRead = kOpMax + 1;
inline constexpr std::uint8_t kOpCentralWrite = kOpMax + 2;

// Server side; lives on one host, attaches to that host's endpoint before
// it starts. Thread-safe for the real-time runtime.
class CentralServer {
 public:
  CentralServer(sim::Runtime& rt, const arch::ArchProfile* profile,
                std::uint64_t region_bytes);

  void Attach(net::Endpoint& ep);

  const arch::ArchProfile& profile() const { return *profile_; }
  base::StatsRegistry& stats() { return stats_; }

  // Direct access for threads on the server host (no network hop). The
  // range must lie inside the region.
  void ReadBytes(GlobalAddr addr, std::span<std::uint8_t> out);
  void WriteBytes(GlobalAddr addr, std::span<const std::uint8_t> data);

 private:
  // True when [addr, addr + size) lies inside the region. Written so that
  // no sum can wrap: a wire address near 2^64 fails it.
  bool InRegion(GlobalAddr addr, std::uint64_t size) const {
    return size <= mem_.size() && addr <= mem_.size() - size;
  }
  void HandleRead(net::RequestContext ctx);
  void HandleWrite(net::RequestContext ctx);

  sim::Runtime& rt_;
  const arch::ArchProfile* profile_;
  std::mutex mu_;
  // In the server's representation. Only the OS pages a run writes hold
  // frames; a run that never uses this backend pays for none.
  base::ZeroMapping mem_;
  base::StatsRegistry stats_;
};

// Client handle bound to one host's endpoint. Typed accessors mirror
// dsm::Host's so workloads can be written against either backend.
class CentralClient {
 public:
  CentralClient() = default;
  // `local` non-null when this host runs the server.
  CentralClient(net::Endpoint* ep, net::HostId server_host,
                const arch::ArchProfile* server_profile,
                CentralServer* local);

  template <typename T>
  T Read(GlobalAddr addr) {
    std::uint8_t buf[sizeof(T)];
    ReadRaw(addr, std::span<std::uint8_t>(buf, sizeof(T)));
    return arch::LoadScalar<T>(*server_profile_, buf);
  }

  template <typename T>
  void Write(GlobalAddr addr, T value) {
    std::uint8_t buf[sizeof(T)];
    arch::StoreScalar<T>(*server_profile_, buf, value);
    WriteRaw(addr, std::span<const std::uint8_t>(buf, sizeof(T)));
  }

 private:
  void ReadRaw(GlobalAddr addr, std::span<std::uint8_t> out);
  void WriteRaw(GlobalAddr addr, std::span<const std::uint8_t> data);

  net::Endpoint* ep_ = nullptr;
  net::HostId server_host_ = 0;
  const arch::ArchProfile* server_profile_ = nullptr;
  CentralServer* local_ = nullptr;
};

}  // namespace mermaid::dsm
