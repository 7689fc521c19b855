#include "spans.hpp"

#include <chrono>
#include <fstream>
#include <functional>
#include <iomanip>
#include <thread>

namespace lmrbench {

namespace {

/// Innermost open span of this thread (record index), for parent links.
thread_local std::int64_t t_current = -1;

}  // namespace

Tracer::Tracer() : origin_(lmr::core::now()) { records_.reserve(1 << 16); }

std::int64_t Tracer::ns_since_origin() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(lmr::core::now() - origin_)
      .count();
}

std::int64_t Tracer::open(const char* name, std::uint64_t op) {
  const std::uint64_t thread_key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::int64_t start = ns_since_origin();
  std::lock_guard<std::mutex> lk(mu_);
  const auto [it, fresh] =
      thread_ids_.emplace(thread_key, static_cast<std::uint32_t>(thread_ids_.size()));
  (void)fresh;
  Record r;
  r.name = name;
  r.start_ns = start;
  r.parent = t_current;
  r.tid = it->second;
  r.op = op;
  records_.push_back(r);
  t_current = static_cast<std::int64_t>(records_.size()) - 1;
  return t_current;
}

void Tracer::close(std::int64_t index) {
  const std::int64_t end = ns_since_origin();
  std::lock_guard<std::mutex> lk(mu_);
  Record& r = records_.at(static_cast<std::size_t>(index));
  r.end_ns = end;
  t_current = r.parent;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_.size();
}

std::map<std::string, SpanTotals> Tracer::rollup() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Children of one parent run on the parent's thread and nest inside it,
  // so the time they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0 && r.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    const double dur_ms = static_cast<double>(r.end_ns - r.start_ns) * 1e-6;
    SpanTotals& t = out[r.name];
    ++t.count;
    t.self_ms += dur_ms - static_cast<double>(child_ns[i]) * 1e-6;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  std::lock_guard<std::mutex> lk(mu_);
  f << std::fixed << std::setprecision(3);  // microseconds with ns digits
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    f << (first ? "\n" : ",\n");
    first = false;
    f << "{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
      << ",\"ts\":" << static_cast<double>(r.start_ns) * 1e-3
      << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) * 1e-3
      << ",\"args\":{\"span\":" << i << ",\"parent\":" << r.parent << ",\"op\":" << r.op
      << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace lmrbench
