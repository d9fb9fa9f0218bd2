#include "trace/audit.hpp"

#include <cstdio>

#include "util/check.hpp"
#include "util/json.hpp"

namespace powder {

namespace {

void append_double(std::string* out, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%.17g", key, v);
  *out += buf;
}

}  // namespace

AuditLog::AuditLog(std::ostream* os) : os_(os) {
  POWDER_CHECK(os_ != nullptr);
}

void AuditLog::write(const AuditRecord& r) {
  // Format into a local buffer first so the stream sees whole lines only.
  std::string line;
  line.reserve(256);
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"seq\":%lld,\"iter\":%d,\"window\":%d,\"epoch\":%llu,"
                "\"cls\":",
                r.seq, r.iteration, r.window, r.epoch);
  line += buf;
  line += json_quote(r.cls);
  std::snprintf(buf, sizeof(buf), ",\"target\":%lld", r.target);
  line += buf;
  if (!r.target_name.empty()) {
    line += ",\"target_name\":" + json_quote(r.target_name);
  }
  if (r.branch_sink >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"branch\":{\"sink\":%lld,\"pin\":%d}",
                  r.branch_sink, r.branch_pin);
    line += buf;
  }
  line += ",\"rep\":{\"kind\":" + json_quote(r.rep_kind);
  if (r.rep_b >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"b\":%lld", r.rep_b);
    line += buf;
  }
  if (r.rep_c >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"c\":%lld", r.rep_c);
    line += buf;
  }
  if (!r.rep_divisors.empty()) {
    line += ",\"divisors\":[";
    for (std::size_t i = 0; i < r.rep_divisors.size(); ++i) {
      std::snprintf(buf, sizeof(buf), i == 0 ? "%lld" : ",%lld",
                    r.rep_divisors[i]);
      line += buf;
    }
    line += ']';
  }
  line += '}';
  append_double(&line, "pg_a", r.pg_a);
  append_double(&line, "pg_b", r.pg_b);
  if (r.pg_c_known) append_double(&line, "pg_c", r.pg_c);
  if (r.proof_engine != nullptr) {
    line += ",\"proof\":{\"engine\":" + json_quote(r.proof_engine) +
            ",\"verdict\":" +
            json_quote(r.proof_verdict != nullptr ? r.proof_verdict : "");
    if (r.proof_us >= 0.0) {
      std::snprintf(buf, sizeof(buf), ",\"us\":%.3f", r.proof_us);
      line += buf;
    }
    line += '}';
  }
  line += ",\"decision\":" + json_quote(r.decision) + "}\n";

  std::lock_guard<std::mutex> lock(mutex_);
  os_->write(line.data(), static_cast<std::streamsize>(line.size()));
  records_.fetch_add(1, std::memory_order_relaxed);
}

void AuditLog::write_event(const AuditEvent& e) {
  std::string line;
  line.reserve(160);
  line += "{\"event\":" + json_quote(e.event);
  if (e.from != nullptr) {
    line += ",\"from\":" + json_quote(e.from);
  }
  if (e.to != nullptr) {
    line += ",\"to\":" + json_quote(e.to);
  }
  if (e.reason != nullptr) {
    line += ",\"reason\":" + json_quote(e.reason);
  }
  if (e.detail != nullptr) {
    line += ",\"detail\":" + json_quote(e.detail);
  }
  if (e.elapsed_seconds >= 0.0)
    append_double(&line, "elapsed_s", e.elapsed_seconds);
  if (e.value >= 0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"value\":%lld", e.value);
    line += buf;
  }
  line += "}\n";

  std::lock_guard<std::mutex> lock(mutex_);
  os_->write(line.data(), static_cast<std::streamsize>(line.size()));
  events_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace powder
