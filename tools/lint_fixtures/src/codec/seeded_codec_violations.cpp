// Seeded codec-prefix violations: this file lives under a src/codec/ path
// on purpose, so the codec-prefix rule must fire on every span/metric below
// that lacks the "codec." prefix.  tests/CMakeLists.txt registers a
// WILL_FAIL ctest invocation over this file; if the analyzer ever stops
// flagging it, that test fails and the rule is known to be broken.
//
// Expected findings:
//   codec-prefix  x2 (span "transport.encode", metric "sst.encode_bytes")
//
// The correctly-prefixed pair at the bottom must NOT be flagged.

#include <string_view>

namespace codec_fixture {

struct Span {
  explicit Span(std::string_view) {}
};

struct Metrics {
  void Add(std::string_view, double) {}
};

void SeededViolations(Metrics& metrics) {
  Span bad_span("transport.encode");   // wrong plane prefix -> finding
  metrics.Add("sst.encode_bytes", 1.0);  // wrong plane prefix -> finding

  Span good_span("codec.encode");        // correct -> no finding
  metrics.Add("codec.encode_bytes", 1.0);  // correct -> no finding
}

}  // namespace codec_fixture
