// Seeded monitor-prefix violations: this file lives under a src/instrument/
// path with "monitor" in its name on purpose, so the monitor-prefix rule
// must fire on every span/metric below that lacks the "monitor." or
// "flightrec." prefix.  tests/CMakeLists.txt registers a WILL_FAIL ctest
// invocation over this file; if the analyzer ever stops flagging it, that
// test fails and the rule is known to be broken.
//
// Expected findings:
//   monitor-prefix  x2 (span "http.serve", metric "sst.scrapes")
//
// The correctly-prefixed pairs at the bottom must NOT be flagged.

#include <string_view>

namespace monitor_fixture {

struct Span {
  explicit Span(std::string_view) {}
};

struct Metrics {
  void Add(std::string_view, double) {}
};

void SeededViolations(Metrics& metrics) {
  Span bad_span("http.serve");     // wrong plane prefix -> finding
  metrics.Add("sst.scrapes", 1.0);  // wrong plane prefix -> finding

  Span good_span("flightrec.dump");      // correct -> no finding
  metrics.Add("monitor.requests", 1.0);  // correct -> no finding
}

}  // namespace monitor_fixture
