#include "obs/trace.h"

#include <chrono>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/bytes.h"

namespace edgestab::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Per-thread span nesting depth (only maintained by active spans).
thread_local std::uint16_t t_span_depth = 0;

}  // namespace

// One registered buffer per recording thread; the shared_ptr in the
// tracer's registry keeps it alive for exporters after the thread exits.
// `cap` is written only by the owning thread (refreshed on each record
// from the tracer's atomic) and read only by that thread's flush.
struct TraceThreadBuffer {
  std::uint32_t thread_id = 0;
  mutable std::mutex mutex;
  std::vector<SpanEvent> events;
  std::uint64_t dropped = 0;
  std::size_t cap = Tracer::kMaxEventsPerThread;
};

namespace {

// Thread-local staging: events append here lock-free and drain into the
// registered buffer per chunk. The destructor drains the remainder when
// the thread exits, so short-lived workers never strand spans; it only
// touches the buffer the shared_ptr keeps alive, never the tracer.
struct TraceSlot {
  std::shared_ptr<TraceThreadBuffer> buffer;
  std::vector<SpanEvent> staging;

  ~TraceSlot() { flush(); }

  void flush() {
    if (buffer == nullptr || staging.empty()) return;
    std::lock_guard<std::mutex> lock(buffer->mutex);
    for (const SpanEvent& e : staging) {
      if (buffer->events.size() >= buffer->cap)
        ++buffer->dropped;
      else
        buffer->events.push_back(e);
    }
    staging.clear();
  }
};

thread_local TraceSlot t_trace_slot;

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

void Tracer::record(const SpanEvent& event) {
  TraceSlot& slot = t_trace_slot;
  if (slot.buffer == nullptr) {
    auto buffer = std::make_shared<TraceThreadBuffer>();
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffer->thread_id = next_thread_id_++;
    buffers_.push_back(buffer);
    slot.buffer = std::move(buffer);
    slot.staging.reserve(kFlushChunk);
  }
  slot.buffer->cap = max_events_.load(std::memory_order_relaxed);
  SpanEvent stamped = event;
  stamped.thread_id = slot.buffer->thread_id;
  slot.staging.push_back(stamped);
  if (slot.staging.size() >= kFlushChunk) slot.flush();
}

void Tracer::flush() { t_trace_slot.flush(); }

std::vector<SpanEvent> Tracer::snapshot() const {
  t_trace_slot.flush();  // a thread always sees its own spans
  std::vector<std::shared_ptr<TraceThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers = buffers_;
  }
  std::vector<SpanEvent> out;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  return out;
}

std::uint64_t Tracer::dropped() const {
  t_trace_slot.flush();
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::uint64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    dropped += buffer->dropped;
  }
  return dropped;
}

std::size_t Tracer::size() const {
  t_trace_slot.flush();
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    n += buffer->events.size();
  }
  return n;
}

void Tracer::clear() {
  t_trace_slot.staging.clear();
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

ScopedSpan::ScopedSpan(const char* category, const char* name,
                       Histogram* histogram)
    : category_(category), name_(name), histogram_(histogram) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  active_ = true;
  depth_ = t_span_depth++;
  start_ns_ = tracer.now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  --t_span_depth;
  Tracer& tracer = Tracer::global();
  std::uint64_t duration = tracer.now_ns() - start_ns_;
  SpanEvent event;
  event.category = category_;
  event.name = name_;
  event.start_ns = start_ns_;
  event.duration_ns = duration;
  event.depth = depth_;
  tracer.record(event);
  if (histogram_ != nullptr) histogram_->record(duration);
}

SuspendTracing::SuspendTracing()
    : was_enabled_(Tracer::global().enabled()),
      profiler_was_enabled_(Profiler::global().enabled()) {
  Tracer::global().set_enabled(false);
  if (profiler_was_enabled_) Profiler::global().set_enabled(false);
}

SuspendTracing::~SuspendTracing() {
  Tracer::global().set_enabled(was_enabled_);
  if (profiler_was_enabled_) Profiler::global().set_enabled(true);
}

std::string chrome_trace_json(const Tracer& tracer) {
  std::vector<SpanEvent> events = tracer.snapshot();
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const SpanEvent& e : events) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("cat").value(e.category);
    w.key("ph").value("X");
    w.key("ts").value(static_cast<double>(e.start_ns) / 1e3);
    w.key("dur").value(static_cast<double>(e.duration_ns) / 1e3);
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(static_cast<std::uint64_t>(e.thread_id));
    w.key("args");
    w.begin_object();
    w.key("depth").value(static_cast<std::uint64_t>(e.depth));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ms");
  w.key("droppedEvents").value(tracer.dropped());
  w.end_object();
  return w.take();
}

bool write_chrome_trace(const Tracer& tracer, const std::string& path) {
  return write_text_file(path, chrome_trace_json(tracer));
}

}  // namespace edgestab::obs
