// The shared JSON string codec (util/json.hpp) behind every writer in the
// repo: each writer's output must decode back, through the one reader, to
// exactly the string it was given — every byte 0x01-0x7f included — and
// strings with no control byte other than newline and tab keep their
// historical bytes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lint/driver.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/serve.hpp"
#include "qa/repro.hpp"
#include "util/json.hpp"

namespace colex {
namespace {

std::vector<std::string> payloads() {
  std::string all_bytes;
  for (int c = 0x01; c <= 0x7f; ++c) all_bytes += static_cast<char>(c);
  return {all_bytes, "alg2\tnote\nline \"quoted\" C:\\dir\\", ""};
}

/// Decodes the string literal that starts at the first `"` at or after
/// `from` in `text`.
std::string decode_at(const std::string& text, std::size_t from) {
  std::size_t pos = text.find('"', from);
  std::string out;
  EXPECT_TRUE(util::json::read_string(text, pos, out)) << text;
  return out;
}

TEST(JsonCodec, EscapesAreTheDocumentedOnes) {
  std::ostringstream os;
  util::json::write_escaped(os, "a\"b\\c\nd\te/\x01\x1f\x7f");
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\te/\\u0001\\u001f\x7f\"");
}

TEST(JsonCodec, TraceMetaRoundTrips) {
  for (const std::string& s : payloads()) {
    obs::TraceMeta meta;
    meta.algorithm = s;
    meta.n = 1;
    const std::string text = obs::to_jsonl({}, meta);
    std::string field;
    ASSERT_TRUE(util::json::find_string(text, "algorithm", field));
    EXPECT_EQ(field, s);
    std::istringstream in(text);
    EXPECT_EQ(obs::load_jsonl(in).meta.algorithm, s);
  }
}

TEST(JsonCodec, ReproStringsRoundTrip) {
  for (const std::string& s : payloads()) {
    qa::ReproFile repro;
    repro.c.ids = {2, 1};
    repro.failed_property = s;
    repro.diagnostic = s + s;
    std::istringstream in(qa::to_repro(repro));
    const qa::ReproFile back = qa::load_repro(in);
    EXPECT_EQ(back.failed_property, repro.failed_property);
    EXPECT_EQ(back.diagnostic, repro.diagnostic);
  }
}

TEST(JsonCodec, RegistrySnapshotNamesRoundTrip) {
  for (const std::string& s : payloads()) {
    obs::Registry reg;
    reg.counter(s).inc(3);
    reg.gauge(s + "g").set(1.5);
    const obs::Registry back = obs::registry_from_json(reg.to_json());
    ASSERT_EQ(back.counters().size(), 1u);
    EXPECT_EQ(back.counters()[0].first, s);
    EXPECT_EQ(back.counters()[0].second->value(), 3u);
    ASSERT_EQ(back.gauges().size(), 1u);
    EXPECT_EQ(back.gauges()[0].first, s + "g");
    EXPECT_EQ(back.to_json(), reg.to_json());
  }
}

TEST(JsonCodec, BenchJsonStringsRoundTrip) {
  for (const std::string& s : payloads()) {
    std::ostringstream value;
    bench::Json::of(s).dump(value);
    EXPECT_EQ(decode_at(value.str(), 0), s);
    std::ostringstream object;
    bench::Json::object().set(s, 1).dump(object);
    EXPECT_EQ(decode_at(object.str(), 0), s);
  }
}

TEST(JsonCodec, LintReportStringsRoundTrip) {
  for (const std::string& s : payloads()) {
    lint::ScanOutcome outcome;
    outcome.errors = {s};
    lint::Finding f;
    f.rule = "rule";
    f.pass = "pass";
    f.file = s;
    f.line = 1;
    f.message = s;
    outcome.findings = {f};
    std::ostringstream os;
    lint::print_json(os, outcome);
    const std::string text = os.str();
    std::string field;
    ASSERT_TRUE(util::json::find_string(text, "file", field));
    EXPECT_EQ(field, s);
    ASSERT_TRUE(util::json::find_string(text, "message", field));
    EXPECT_EQ(field, s);
    EXPECT_EQ(decode_at(text, text.find("\"errors\": [") + 10), s);
  }
}

}  // namespace
}  // namespace colex
