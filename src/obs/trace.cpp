#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <ostream>

namespace msu {
namespace obs {

namespace {

std::uint64_t nextTracerId() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local cache of the last (tracer, buffer) pair this thread
/// used. Keyed by a process-unique tracer id, never by address, so a
/// Tracer allocated at a recycled address cannot hit a stale entry.
struct TlsRef {
  std::uint64_t tracer_id = 0;
  void* buffer = nullptr;
};
thread_local TlsRef tls_ref;

}  // namespace

const char* traceCatName(TraceCat cat) {
  switch (cat) {
    case TraceCat::kOracle:
      return "oracle";
    case TraceCat::kCore:
      return "core";
    case TraceCat::kRestart:
      return "restart";
    case TraceCat::kJob:
      return "job";
    case TraceCat::kWorker:
      return "worker";
  }
  return "?";
}

Tracer::Tracer() : Tracer(Options{}) {}

Tracer::Tracer(Options opts)
    : capacity_(std::max<std::size_t>(opts.capacity_per_thread, 16)),
      tracer_id_(nextTracerId()),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() {
  // Invalidate this thread's cache eagerly; other threads' caches are
  // keyed by tracer_id_ which is never reissued, so they miss safely.
  if (tls_ref.tracer_id == tracer_id_) tls_ref = TlsRef{};
}

std::int64_t Tracer::nowUs() const {
  return timestampUs(std::chrono::steady_clock::now());
}

std::int64_t Tracer::timestampUs(
    std::chrono::steady_clock::time_point tp) const {
  if (tp <= epoch_) return 0;
  return std::chrono::duration_cast<std::chrono::microseconds>(tp - epoch_)
      .count();
}

Tracer::ThreadBuffer* Tracer::buffer() {
  if (tls_ref.tracer_id == tracer_id_)
    return static_cast<ThreadBuffer*>(tls_ref.buffer);
  return registerThread();
}

Tracer::ThreadBuffer* Tracer::registerThread() {
  std::lock_guard<std::mutex> lock(mu_);
  const auto me = std::this_thread::get_id();
  for (const auto& b : buffers_) {
    if (b->owner == me) {
      tls_ref = TlsRef{tracer_id_, b.get()};
      return b.get();
    }
  }
  buffers_.push_back(std::make_unique<ThreadBuffer>(capacity_));
  ThreadBuffer* b = buffers_.back().get();
  b->owner = me;
  b->tid = static_cast<std::uint32_t>(buffers_.size() - 1);
  tls_ref = TlsRef{tracer_id_, b};
  return b;
}

void Tracer::emit(const TraceEvent& e) {
  ThreadBuffer* b = buffer();
  // Single-writer ring: only the owner thread ever touches the slots
  // or advances head, so a relaxed load + release store suffice. The
  // release pairs with the exporter's acquire so a published head
  // implies a fully written slot.
  const std::uint64_t h = b->head.load(std::memory_order_relaxed);
  TraceEvent& slot = b->events[h % capacity_];
  slot = e;
  slot.tid = b->tid;
  b->head.store(h + 1, std::memory_order_release);
}

void Tracer::instant(TraceCat cat, const char* name, const char* argName,
                     std::int64_t arg) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.arg_name = argName;
  e.ts_us = nowUs();
  e.dur_us = -1;
  e.arg = arg;
  e.cat = cat;
  emit(e);
}

void Tracer::span(TraceCat cat, const char* name, std::int64_t startUs,
                  std::int64_t endUs, const char* argName, std::int64_t arg) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.arg_name = argName;
  e.ts_us = startUs;
  e.dur_us = std::max<std::int64_t>(0, endUs - startUs);
  e.arg = arg;
  e.cat = cat;
  emit(e);
}

std::int64_t Tracer::emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const auto& b : buffers_)
    total +=
        static_cast<std::int64_t>(b->head.load(std::memory_order_acquire));
  return total;
}

std::int64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const auto& b : buffers_) {
    const std::uint64_t h = b->head.load(std::memory_order_acquire);
    if (h > capacity_) total += static_cast<std::int64_t>(h - capacity_);
  }
  return total;
}

int Tracer::threadsSeen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(buffers_.size());
}

namespace {

/// Escapes a string for a JSON string literal. Event names are our own
/// static literals, but keep the exporter defensive anyway.
void writeJsonString(std::ostream& out, const char* s) {
  out << '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out << "\\u0020";  // control chars: emit a space escape
        else
          out << c;
    }
  }
  out << '"';
}

void writeEvent(std::ostream& out, const TraceEvent& e) {
  out << "{\"name\":";
  writeJsonString(out, e.name != nullptr ? e.name : "?");
  out << ",\"cat\":\"" << traceCatName(e.cat) << "\"";
  if (e.dur_us < 0) {
    out << ",\"ph\":\"i\",\"s\":\"t\"";
  } else {
    out << ",\"ph\":\"X\",\"dur\":" << e.dur_us;
  }
  out << ",\"ts\":" << e.ts_us << ",\"pid\":1,\"tid\":" << e.tid;
  if (e.arg_name != nullptr) {
    out << ",\"args\":{";
    writeJsonString(out, e.arg_name);
    out << ":" << e.arg << "}";
  }
  out << "}";
}

}  // namespace

void Tracer::exportChromeTrace(std::ostream& out) const {
  std::vector<TraceEvent> all;
  std::int64_t drops = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      const std::uint64_t h = b->head.load(std::memory_order_acquire);
      const std::uint64_t n = std::min<std::uint64_t>(h, capacity_);
      if (h > capacity_) drops += static_cast<std::int64_t>(h - capacity_);
      for (std::uint64_t i = h - n; i < h; ++i)
        all.push_back(b->events[i % capacity_]);
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : all) {
    if (!first) out << ",\n";
    first = false;
    writeEvent(out, e);
  }
  out << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":" << drops
      << "}}\n";
}

bool Tracer::exportChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  exportChromeTrace(out);
  return static_cast<bool>(out);
}

}  // namespace obs
}  // namespace msu
