#include <algorithm>
#include <cstdio>

#include "perfbench.h"

namespace perfbench {

const char* LayerOf(Kind k) {
  switch (k) {
    case Kind::kAccess:
    case Kind::kAlloc:
    case Kind::kSetup:
      return "dsm";
    case Kind::kSync:
      return "sync";
    case Kind::kCompute:
    case Kind::kThread:
      return "apps";
    case Kind::kRun:
    case Kind::kDelay:
      return "sim";
    case Kind::kStats:
      return "net";
    case Kind::kCodec:
      return "arch";
  }
  return "?";
}

void Recorder::Account(Kind k, SimDuration modeled, std::int64_t host_ns) {
  switch (k) {
    case Kind::kAccess:
      ++ops;
      access_modeled += modeled;
      // A call that found its access in place never blocks, so its modeled
      // duration is zero and its host time is the accessor's own.
      if (modeled > 0) {
        blocked_ms.push_back(ToMillis(modeled));
      } else {
        hit_access_host_ns += host_ns;
      }
      break;
    case Kind::kAlloc:
      ++ops;
      break;
    case Kind::kSync:
      ++ops;
      ++sync_ops;
      sync_modeled += modeled;
      break;
    case Kind::kCompute:
      compute_modeled += modeled;
      break;
    default:
      break;
  }
}

void SpawnTraced(dsm::System& sys, Recorder& rec, net::HostId h,
                 const std::string& name, const char* label,
                 std::uint32_t parent,
                 std::function<void(dsm::Host&, Caller&)> body) {
  sys.SpawnThread(h, name, [&rec, h, label, parent,
                            body = std::move(body)](dsm::Host& host) {
    Caller outer(rec, host.runtime(), h, parent);
    outer.Scope(label, Kind::kThread,
                [&](Caller& inner) { body(host, inner); });
  });
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::vector<const Span*> order;
  order.reserve(spans.size());
  for (const Span& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const Span* a, const Span* b) { return a->id < b->id; });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const Span* s : order) {
    // One track per application thread (its body span), one for the
    // harness: spans on a track nest, as the trace-event format expects.
    const std::uint32_t track = s->kind == Kind::kThread ? s->id
                                : s->host < 0          ? 0
                                                       : s->parent;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%u,\"parent\":%u,\"host\":%d,"
                 "\"sim_start_ns\":%lld,\"sim_end_ns\":%lld}}",
                 first ? "" : ",", s->name, LayerOf(s->kind), track,
                 static_cast<double>(s->host_start_ns) / 1e3,
                 static_cast<double>(s->host_end_ns - s->host_start_ns) / 1e3,
                 s->id, s->parent, s->host,
                 static_cast<long long>(s->sim_start),
                 static_cast<long long>(s->sim_end));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
