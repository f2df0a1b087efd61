// Measurement helpers of the end-to-end benchmark, kept free of engine
// types so test_harness.cpp can pin each one on its own:
//
//  * TailSummary    — percentiles of a sample with its count, and how many
//                     samples lie beyond each reported percentile;
//  * OpenLoopSchedule — due times of an open-loop generator at a fixed rate;
//  * SpanCompletions — count-based span completion against a retired count;
//  * /proc parsing  — CPU steal share from /proc/stat, VmHWM from
//                     /proc/self/status;
//  * stream_hash    — FNV-1a over a generated stream, so a seed's inputs can
//                     be compared across runs and machines.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "model/request.h"

namespace mcbench {

/// Fractional-rank percentile (q in [0, 100]) of an unsorted sample;
/// 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Samples strictly above the q-th percentile position: a percentile is
/// worth reporting only when at least ten samples lie beyond it.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = q / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(std::floor(rank));
}

struct TailSummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::size_t beyond_p90 = 0;
  std::size_t beyond_p99 = 0;
};

inline TailSummary summarize(const std::vector<double>& v) {
  TailSummary s;
  s.samples = v.size();
  s.p50 = percentile(v, 50.0);
  s.p90 = percentile(v, 90.0);
  s.p99 = percentile(v, 99.0);
  s.beyond_p90 = samples_beyond(v.size(), 90.0);
  s.beyond_p99 = samples_beyond(v.size(), 99.0);
  return s;
}

/// Due times of an open-loop generator: block k (of `block` records) is
/// due at start + k * block / rate, independent of how late earlier
/// blocks went out — a stall delays later blocks' sends, not their due
/// times, so their latency counts the stall.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(std::int64_t start_ns, double rate_per_s, std::size_t block)
      : start_ns_(start_ns), ns_per_block_(1e9 * static_cast<double>(block) / rate_per_s) {}

  std::int64_t due_ns(std::size_t k) const {
    return start_ns_ + static_cast<std::int64_t>(std::llround(ns_per_block_ * static_cast<double>(k)));
  }

 private:
  std::int64_t start_ns_;
  double ns_per_block_;
};

/// Count-based completion of submitted spans. A span is complete at the
/// first poll whose retired count (summed over every session) reaches the
/// cumulative number of records submitted through that span; its latency
/// runs from the span's due time to that poll.
class SpanCompletions {
 public:
  void submitted(std::uint64_t cumulative_records, std::int64_t due_ns) {
    pending_.push_back({cumulative_records, due_ns});
  }

  /// Completes every pending span covered by `retired`, appending each
  /// latency in microseconds to `latencies_us`. Returns spans completed.
  std::size_t poll(std::uint64_t retired, std::int64_t now_ns,
                   std::vector<double>& latencies_us) {
    std::size_t done = 0;
    while (!pending_.empty() && pending_.front().end <= retired) {
      latencies_us.push_back(static_cast<double>(now_ns - pending_.front().due_ns) / 1e3);
      pending_.pop_front();
      ++done;
    }
    return done;
  }

  std::size_t outstanding() const { return pending_.size(); }

 private:
  struct Pending {
    std::uint64_t end;
    std::int64_t due_ns;
  };
  std::deque<Pending> pending_;
};

/// Aggregate CPU jiffies from the "cpu " line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

/// Parses "cpu  user nice system idle iowait irq softirq steal ..."; the
/// eighth field is steal. Missing fields count as 0.
inline CpuTimes parse_cpu_line(const std::string& line) {
  CpuTimes t;
  std::istringstream in(line);
  std::string tag;
  in >> tag;
  if (tag != "cpu") return t;
  std::uint64_t v = 0;
  for (int field = 0; field < 10 && (in >> v); ++field) {
    // guest and guest_nice (fields 8, 9) are already inside user/nice.
    if (field < 8) t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

inline CpuTimes read_cpu_times(const char* path = "/proc/stat") {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu ", 0) == 0) return parse_cpu_line(line);
  }
  return {};
}

/// Share of CPU time the hypervisor stole between two readings.
inline double steal_share(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

/// The value in kB of a "Key:   123 kB" line of a /proc status file, or 0.
inline std::uint64_t parse_status_kb(const std::string& text, const char* key) {
  std::istringstream in(text);
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen && line[klen] == ':') {
      return std::strtoull(line.c_str() + klen + 1, nullptr, 10);
    }
  }
  return 0;
}

inline std::uint64_t read_vmhwm_kb() {
  std::ifstream in("/proc/self/status");
  std::stringstream ss;
  ss << in.rdbuf();
  return parse_status_kb(ss.str(), "VmHWM");
}

/// FNV-1a over every record's (item, server, time bits).
inline std::uint64_t stream_hash(const std::vector<mcdc::MultiItemRequest>& stream) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& r : stream) {
    mix(&r.item, sizeof r.item);
    mix(&r.server, sizeof r.server);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r.time, sizeof bits);
    mix(&bits, sizeof bits);
  }
  return h;
}

}  // namespace mcbench
