// Span recorder for the traced run. Spans are opened and closed on the
// benchmark's driving thread around calls into each layer, strictly
// nested, kept in memory, and written out as Chrome-trace JSON when the
// run ends. A disabled tracer records nothing and costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace mcbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name;  ///< the layer: "service", "engine.submit", ...
    std::int64_t start_ns;
    std::int64_t end_ns;
    int id;
    int parent;  ///< -1 for a phase (root) span
    std::int64_t child_ns = 0;  ///< time covered by direct children
  };

  explicit Tracer(bool on) : on_(on) {}

  int begin(const char* name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, id, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void end(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    stack_.pop_back();
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
  }

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus direct children) summed per span name, ms.
  std::map<std::string, double> self_ms() const {
    std::map<std::string, double> out;
    for (const auto& s : spans_) out[s.name] += static_cast<double>(s.end_ns - s.start_ns - s.child_ns) / 1e6;
    return out;
  }

  /// Chrome-trace JSON ("X" complete events, microseconds) with the span
  /// and parent ids in each event's args.
  std::string chrome_json() const {
    std::string out = "{\"traceEvents\":[";
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%d,\"parent\":%d}}",
                    i ? "," : "", s.name, static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id, s.parent);
      out += buf;
    }
    out += "]}\n";
    return out;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace mcbench
