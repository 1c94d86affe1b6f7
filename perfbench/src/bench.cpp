#include "bench.h"

#include <fstream>

namespace perfbench {

std::int64_t SpanLog::add(std::string name, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::int64_t parent,
                          std::uint64_t flow) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, flow});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream f(path);
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    // Complete events ("X") in microseconds; the parent index and request
    // id ride along as args.
    f << (i ? ",\n" : "") << "{\"name\": \"" << sp.name
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
      << static_cast<double>(sp.start_ns - origin) * 1e-3
      << ", \"dur\": " << static_cast<double>(sp.end_ns - sp.start_ns) * 1e-3
      << ", \"args\": {\"span\": " << i << ", \"parent\": " << sp.parent
      << ", \"flow\": " << sp.flow << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
