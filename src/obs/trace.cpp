#include "obs/trace.hpp"

#include <sstream>

namespace hj::obs {

Trace& Trace::global() {
  static Trace t;
  return t;
}

void Trace::record(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::string Trace::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    os << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << json_escape(e.name)
       << "\", \"cat\": \"hj\", \"ph\": \"X\", \"ts\": " << e.ts_us
       << ", \"dur\": " << e.dur_us << ", \"pid\": 1, \"tid\": " << e.tid;
    if (e.has_arg) os << ", \"args\": {\"n\": " << e.arg << "}";
    os << "}";
  }
  os << (events_.empty() ? "]}\n" : "\n]}\n");
  return os.str();
}

std::vector<TraceEvent> Trace::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void Trace::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

u64 Trace::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

}  // namespace hj::obs
