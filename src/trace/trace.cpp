#include "trace/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/json.hpp"

namespace powder {

namespace {

std::atomic<std::uint64_t> g_next_session_id{1};

/// Per-thread cache of the last session this thread registered with. The
/// (pointer, id) pair guards against a destroyed session's address being
/// reused by a new one.
struct ThreadSlot {
  const void* owner = nullptr;
  std::uint64_t session_id = 0;
  void* buf = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

TraceSession::TraceSession(std::size_t events_per_thread)
    : id_(g_next_session_id.fetch_add(1, std::memory_order_relaxed)),
      t0_ns_(trace_now_ns()),
      events_per_thread_(events_per_thread) {}

TraceSession::~TraceSession() = default;

TraceSession::ThreadBuf* TraceSession::thread_buf() {
  if (t_slot.owner == this && t_slot.session_id == id_)
    return static_cast<ThreadBuf*>(t_slot.buf);
  std::lock_guard<std::mutex> lock(mutex_);
  auto buf = std::make_unique<ThreadBuf>(events_per_thread_);
  buf->tid = static_cast<std::uint32_t>(buffers_.size());
  ThreadBuf* raw = buf.get();
  buffers_.push_back(std::move(buf));
  t_slot = ThreadSlot{this, id_, raw};
  return raw;
}

void TraceSession::record(const TraceEvent& event) {
  ThreadBuf* buf = thread_buf();
  if (buf->ring.try_push(event)) {
    recorded_.fetch_add(1, std::memory_order_relaxed);
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void TraceSession::record_span(const char* name, const char* cat,
                               std::uint64_t ts_ns, std::uint64_t dur_ns,
                               const char* arg1_name, long long arg1,
                               const char* arg2_name, long long arg2) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.ph = 'X';
  ev.arg1_name = arg1_name;
  ev.arg1 = arg1;
  ev.arg2_name = arg2_name;
  ev.arg2 = arg2;
  record(ev);
}

void TraceSession::record_instant(const char* name, const char* cat,
                                  const char* arg1_name, long long arg1) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = trace_now_ns();
  ev.ph = 'i';
  ev.arg1_name = arg1_name;
  ev.arg1 = arg1;
  record(ev);
}

void TraceSession::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> tmp;
  for (const auto& buf : buffers_) {
    tmp.clear();
    buf->ring.pop_all(&tmp);
    for (const TraceEvent& ev : tmp)
      drained_.push_back(TaggedEvent{ev, buf->tid});
  }
}

std::size_t TraceSession::threads_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffers_.size();
}

namespace {

/// Microseconds with nanosecond resolution, printed as a decimal (Chrome's
/// `ts`/`dur` unit is microseconds; fractions are allowed).
void append_us(std::ostream& os, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  os << buf;
}

}  // namespace

void TraceSession::write_chrome_json(std::ostream& os) {
  drain();
  std::vector<TaggedEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = drained_;
  }
  // Start time, then longest-first: parents sort before their children, so
  // the output order is deterministic and human-scannable.
  std::stable_sort(events.begin(), events.end(),
                   [](const TaggedEvent& a, const TaggedEvent& b) {
                     if (a.event.ts_ns != b.event.ts_ns)
                       return a.event.ts_ns < b.event.ts_ns;
                     if (a.event.dur_ns != b.event.dur_ns)
                       return a.event.dur_ns > b.event.dur_ns;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return std::strcmp(a.event.name, b.event.name) < 0;
                   });

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"powder\"}}";
  for (const TaggedEvent& te : events) {
    const TraceEvent& ev = te.event;
    os << ",\n{\"name\":" << json_quote(ev.name) << ",\"cat\":"
       << json_quote(ev.cat != nullptr ? ev.cat : "default");
    os << ",\"ph\":\"" << ev.ph << "\",\"pid\":1,\"tid\":" << te.tid
       << ",\"ts\":";
    append_us(os, ev.ts_ns >= t0_ns_ ? ev.ts_ns - t0_ns_ : 0);
    if (ev.ph == 'X') {
      os << ",\"dur\":";
      append_us(os, ev.dur_ns);
    }
    if (ev.ph == 'i') os << ",\"s\":\"t\"";
    if (ev.arg1_name != nullptr || ev.arg2_name != nullptr) {
      os << ",\"args\":{";
      bool first = true;
      if (ev.arg1_name != nullptr) {
        os << json_quote(ev.arg1_name) << ":" << ev.arg1;
        first = false;
      }
      if (ev.arg2_name != nullptr) {
        if (!first) os << ",";
        os << json_quote(ev.arg2_name) << ":" << ev.arg2;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

std::string TraceSession::chrome_json() {
  std::ostringstream os;
  write_chrome_json(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Chrome-JSON schema validation, on the shared strict JSON reader.

namespace {

/// Parses `json` and returns its `traceEvents` array (owned by `*doc`), or
/// nullptr with `*error` set.
const JsonValue* trace_events(std::string_view json,
                              std::unique_ptr<JsonValue>* doc,
                              std::string* error) {
  *doc = json_parse(json, error);
  if (*doc == nullptr) return nullptr;
  if (!(*doc)->is_object()) {
    *error = "top level is not an object";
    return nullptr;
  }
  const JsonValue* events = (*doc)->find("traceEvents");
  if (events == nullptr) {
    *error = "missing traceEvents";
    return nullptr;
  }
  if (!events->is_array()) {
    *error = "traceEvents not an array";
    return nullptr;
  }
  return events;
}

/// Checks one trace event against the minimal schema; returns the problem,
/// or an empty string when the event is well formed.
std::string check_event(const JsonValue& ev) {
  if (!ev.is_object()) return "expected object";
  const JsonValue* name = ev.find("name");
  if (name == nullptr) return "missing name";
  if (!name->is_string()) return "name not a string";
  const JsonValue* ph = ev.find_string("ph");
  if (ph == nullptr || ph->as_string().size() != 1) return "missing/bad ph";
  const char kind = ph->as_string()[0];
  // Metadata events carry no timestamp requirement; everything else does.
  const struct {
    const char* key;
    bool required;
    bool non_negative;
  } fields[] = {{"pid", true, false},
                {"tid", true, false},
                {"ts", kind != 'M', true},
                {"dur", kind == 'X', true}};
  for (const auto& f : fields) {
    const JsonValue* v = ev.find(f.key);
    if (v == nullptr) {
      if (f.required) return std::string("missing ") + f.key;
      continue;
    }
    if (!v->is_number()) return std::string(f.key) + " not a number";
    if (f.non_negative && v->as_number() < 0)
      return std::string("negative ") + f.key;
  }
  return "";
}

}  // namespace

bool validate_chrome_json(std::string_view json, std::size_t* num_events,
                          std::string* error) {
  std::string problem;
  std::unique_ptr<JsonValue> doc;
  const JsonValue* events = trace_events(json, &doc, &problem);
  for (std::size_t i = 0;
       events != nullptr && problem.empty() && i < events->items().size();
       ++i) {
    problem = check_event(events->items()[i]);
    if (!problem.empty()) problem = "event " + std::to_string(i) + ": " + problem;
  }
  if (!problem.empty()) {
    if (error != nullptr) *error = problem;
    return false;
  }
  if (num_events != nullptr) *num_events = events->items().size();
  return true;
}

bool validate_window_nesting(std::string_view json, std::size_t* num_windows,
                             std::string* error) {
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  std::string problem;
  std::unique_ptr<JsonValue> doc;
  const JsonValue* events = trace_events(json, &doc, &problem);
  if (events == nullptr) return fail(problem);

  // The complete ('X') "window" and "iteration" spans.
  struct Span {
    double ts = 0.0;
    double dur = 0.0;
    double tid = 0.0;
    bool has_window_arg = false;
  };
  std::vector<Span> windows;
  std::vector<Span> iterations;
  for (const JsonValue& ev : events->items()) {
    const JsonValue* name = ev.find_string("name");
    const JsonValue* ph = ev.find_string("ph");
    if (name == nullptr || ph == nullptr || ph->as_string() != "X") continue;
    const auto number = [&](const char* key) {
      const JsonValue* v = ev.find_number(key);
      return v != nullptr ? v->as_number() : 0.0;
    };
    Span s{number("ts"), number("dur"), number("tid"), false};
    const JsonValue* args = ev.find_object("args");
    s.has_window_arg = args != nullptr && args->find_number("window") != nullptr;
    if (name->as_string() == "window") windows.push_back(s);
    if (name->as_string() == "iteration") iterations.push_back(s);
  }

  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Span& w = windows[i];
    if (!w.has_window_arg)
      return fail("window span " + std::to_string(i) + " has no window arg");
    bool contained = false;
    for (const Span& it : iterations)
      if (w.ts >= it.ts && w.ts + w.dur <= it.ts + it.dur) {
        contained = true;
        break;
      }
    if (!contained)
      return fail("window span " + std::to_string(i) +
                  " not nested in any iteration span");
  }
  // Per thread, window spans must be disjoint or fully nested: the fan-out
  // runs one window at a time per pool thread, so a partial overlap means
  // interleaved (miscounted) spans.
  std::vector<const Span*> by_time;
  for (const Span& w : windows) by_time.push_back(&w);
  std::sort(by_time.begin(), by_time.end(),
            [](const Span* a, const Span* b) { return a->ts < b->ts; });
  for (std::size_t i = 0; i < by_time.size(); ++i)
    for (std::size_t j = i + 1; j < by_time.size(); ++j) {
      const Span& a = *by_time[i];
      const Span& b = *by_time[j];
      if (a.tid != b.tid) continue;
      if (b.ts >= a.ts + a.dur) break;  // disjoint (and all later j too)
      if (b.ts + b.dur > a.ts + a.dur)
        return fail("window spans on tid " +
                    std::to_string(static_cast<long long>(a.tid)) +
                    " partially overlap");
    }
  if (num_windows != nullptr) *num_windows = windows.size();
  return true;
}

}  // namespace powder
