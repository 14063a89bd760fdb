/// Tests of the observability layer (src/obs): exact drop accounting of
/// the per-thread trace rings (single- and multi-threaded — the latter
/// is the TSan stress for the single-writer protocol), Chrome-trace
/// JSON well-formedness checked by an in-test JSON parser against a
/// real 4-worker portfolio run, histogram bucket boundaries, Prometheus
/// exposition, the ProgressSink's monotone bound folding, and the
/// observation-only gate: a solve with tracing off/null/on must be
/// bit-for-bit identical in stats, cost and model.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/msu4.h"
#include "gen/random_cnf.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "par/portfolio.h"

namespace msu {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON parser (objects / arrays / strings / integers / literals)
// — enough to verify the exporter's output is real JSON, not just
// JSON-shaped text. Throws std::runtime_error on any malformation.

struct JsonValue {
  enum class Type { kObject, kArray, kString, kNumber, kBool, kNull };
  Type type = Type::kNull;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
  std::string string;
  double number = 0.0;
  bool boolean = false;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = parseValue();
    skipWs();
    if (pos_ != s_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(what + " at offset " + std::to_string(pos_));
  }
  void skipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skipWs();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parseValue() {
    switch (peek()) {
      case '{':
        return parseObject();
      case '[':
        return parseArray();
      case '"':
        return parseString();
      case 't':
      case 'f':
        return parseLiteral();
      case 'n':
        return parseLiteral();
      default:
        return parseNumber();
    }
  }

  JsonValue parseObject() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      JsonValue key = parseString();
      expect(':');
      v.object[key.string] = parseValue();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parseArray() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parseValue());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parseString() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    expect('"');
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return v;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control char");
      if (c != '\\') {
        v.string += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          v.string += e;
          break;
        case 'n':
          v.string += '\n';
          break;
        case 't':
          v.string += '\t';
          break;
        case 'u':
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          pos_ += 4;
          v.string += '?';
          break;
        default:
          fail("bad escape");
      }
    }
  }

  JsonValue parseNumber() {
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  JsonValue parseLiteral() {
    JsonValue v;
    for (const auto& [word, type, b] :
         {std::tuple<const char*, JsonValue::Type, bool>{
              "true", JsonValue::Type::kBool, true},
          {"false", JsonValue::Type::kBool, false},
          {"null", JsonValue::Type::kNull, false}}) {
      if (s_.compare(pos_, std::string(word).size(), word) == 0) {
        pos_ += std::string(word).size();
        v.type = type;
        v.boolean = b;
        return v;
      }
    }
    fail("bad literal");
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Drop accounting.

TEST(Tracer, ExactDropAccountingSingleThread) {
  obs::Tracer::Options to;
  to.capacity_per_thread = 16;  // the constructor's floor
  obs::Tracer tracer(to);
  tracer.setEnabled(true);
  for (int i = 0; i < 40; ++i) {
    tracer.instant(obs::TraceCat::kOracle, "tick", "i", i);
  }
  EXPECT_EQ(tracer.emitted(), 40);
  EXPECT_EQ(tracer.dropped(), 40 - 16);
  EXPECT_EQ(tracer.retained(), 16);
  EXPECT_EQ(tracer.threadsSeen(), 1);

  // The ring keeps the *suffix*: the export must contain exactly the
  // last 16 events, args 24..39.
  std::ostringstream os;
  tracer.exportChromeTrace(os);
  const std::string text = os.str();
  const JsonValue doc = JsonParser(text).parse();
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.array.size(), 16u);
  std::set<int> args;
  for (const JsonValue& e : events.array) {
    args.insert(static_cast<int>(e.at("args").at("i").number));
  }
  EXPECT_EQ(*args.begin(), 24);
  EXPECT_EQ(*args.rbegin(), 39);
  EXPECT_EQ(static_cast<std::int64_t>(
                doc.at("otherData").at("dropped").number),
            24);
}

// The multi-thread emission stress: every thread hammers its own ring
// concurrently with reader-side accounting calls. Run under TSan (CI
// builds this test with -fsanitize=thread) this is the proof of the
// single-writer claim; in any build the final counters must be exact
// because each thread's drops are max(0, per-thread emits - capacity).
TEST(Tracer, MultiThreadEmitStressExactCounters) {
  constexpr int kThreads = 8;
  constexpr int kEmits = 5000;
  obs::Tracer::Options to;
  to.capacity_per_thread = 64;
  obs::Tracer tracer(to);
  tracer.setEnabled(true);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kEmits; ++i) {
        if ((i & 1) == 0) {
          tracer.instant(obs::TraceCat::kRestart, "emit", "thread", t);
        } else {
          tracer.span(obs::TraceCat::kWorker, "work", i, i + 1, "thread", t);
        }
      }
    });
  }
  // Concurrent readers are allowed (poll-style accounting while workers
  // run); the values are racy snapshots but must never trip TSan.
  for (int probe = 0; probe < 100; ++probe) {
    static_cast<void>(tracer.emitted());
    static_cast<void>(tracer.dropped());
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(tracer.emitted(), std::int64_t{kThreads} * kEmits);
  EXPECT_EQ(tracer.dropped(), std::int64_t{kThreads} * (kEmits - 64));
  EXPECT_EQ(tracer.retained(), std::int64_t{kThreads} * 64);
  EXPECT_EQ(tracer.threadsSeen(), kThreads);

  // Post-join the rings are quiescent: the export must hold exactly the
  // retained events and parse as JSON.
  std::ostringstream os;
  tracer.exportChromeTrace(os);
  const std::string text = os.str();
  const JsonValue doc = JsonParser(text).parse();
  EXPECT_EQ(doc.at("traceEvents").array.size(),
            static_cast<std::size_t>(kThreads) * 64);
}

TEST(Tracer, DisabledAndNullEmitNothing) {
  obs::Tracer tracer;  // constructed disabled
  tracer.instant(obs::TraceCat::kOracle, "ignored");
  {
    obs::TraceSpan span(&tracer, obs::TraceCat::kOracle, "ignored");
    EXPECT_FALSE(span.active());
  }
  {
    obs::TraceSpan span(nullptr, obs::TraceCat::kOracle, "ignored");
    EXPECT_FALSE(span.active());
    span.arg("x", 1);  // must be harmless
  }
  obs::traceInstant(nullptr, obs::TraceCat::kWorker, "ignored");
  EXPECT_EQ(tracer.emitted(), 0);
  EXPECT_EQ(tracer.threadsSeen(), 0);

  // Enabling *after* a guard was constructed must not make that guard
  // emit (the gate is sampled at construction).
  obs::TraceSpan late(&tracer, obs::TraceCat::kOracle, "late");
  tracer.setEnabled(true);
  EXPECT_FALSE(late.active());
}

TEST(Tracer, SpanGuardRecordsArgAndDuration) {
  obs::Tracer tracer;
  tracer.setEnabled(true);
  {
    obs::TraceSpan span(&tracer, obs::TraceCat::kCore, "trim-core");
    ASSERT_TRUE(span.active());
    span.arg("lits", 7);
    span.arg("lits", 9);  // last call wins
  }
  EXPECT_EQ(tracer.emitted(), 1);
  std::ostringstream os;
  tracer.exportChromeTrace(os);
  const std::string text = os.str();
  const JsonValue doc = JsonParser(text).parse();
  const JsonValue& e = doc.at("traceEvents").array.at(0);
  EXPECT_EQ(e.at("name").string, "trim-core");
  EXPECT_EQ(e.at("cat").string, "core");
  EXPECT_EQ(e.at("ph").string, "X");
  EXPECT_GE(e.at("dur").number, 0.0);
  EXPECT_EQ(static_cast<int>(e.at("args").at("lits").number), 9);
}

// ---------------------------------------------------------------------
// The acceptance-criterion trace: a 4-worker portfolio solve (what
// `maxsat_cli --threads 4 --trace out.json` runs) must export valid
// Chrome trace JSON with spans from multiple worker timelines.

TEST(Tracer, PortfolioRunExportsValidChromeTrace) {
  obs::Tracer tracer;
  tracer.setEnabled(true);

  PortfolioOptions po;
  po.threads = 4;
  po.base.sat.trace = &tracer;
  PortfolioSolver solver(po);
  const WcnfFormula wcnf =
      WcnfFormula::allSoft(randomUnsat3Sat(30, 5.6, 7));
  const MaxSatResult r = solver.solve(wcnf);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);

  std::ostringstream os;
  tracer.exportChromeTrace(os);
  const std::string text = os.str();
  const JsonValue doc = JsonParser(text).parse();  // throws on bad JSON
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.type, JsonValue::Type::kArray);
  ASSERT_FALSE(events.array.empty());

  const std::set<std::string> knownCats{"oracle", "core", "restart", "job",
                                        "worker"};
  std::set<double> tids;
  std::set<std::string> names;
  double lastTs = -1.0;
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.type, JsonValue::Type::kObject);
    EXPECT_TRUE(knownCats.count(e.at("cat").string) == 1)
        << e.at("cat").string;
    const std::string ph = e.at("ph").string;
    ASSERT_TRUE(ph == "X" || ph == "i") << ph;
    if (ph == "X") {
      EXPECT_GE(e.at("dur").number, 0.0);
    } else {
      EXPECT_EQ(e.at("s").string, "t");
    }
    EXPECT_GE(e.at("ts").number, lastTs);  // exporter sorts by time
    lastTs = e.at("ts").number;
    EXPECT_EQ(static_cast<int>(e.at("pid").number), 1);
    tids.insert(e.at("tid").number);
    names.insert(e.at("name").string);
  }
  // Four racing workers -> several distinct timelines, each bracketed
  // by a portfolio-worker span around its oracle solve spans.
  EXPECT_GE(tids.size(), 2u);
  EXPECT_TRUE(names.count("portfolio-worker") == 1);
  EXPECT_TRUE(names.count("solve") == 1);
  EXPECT_EQ(tracer.threadsSeen(), static_cast<int>(tids.size()));
}

// ---------------------------------------------------------------------
// Observation-only gate: trace off (null), present-but-disabled, and
// enabled must leave the solve bit-for-bit identical.

TEST(Tracer, TracingDoesNotPerturbTheSolve) {
  const WcnfFormula wcnf =
      WcnfFormula::allSoft(randomUnsat3Sat(36, 5.8, 5));

  struct Leg {
    MaxSatResult r;
  };
  const auto runLeg = [&wcnf](obs::Tracer* tracer) {
    MaxSatOptions o;
    o.sat.trace = tracer;
    Msu4Solver solver(o);
    Leg leg;
    leg.r = solver.solve(wcnf);
    EXPECT_EQ(leg.r.status, MaxSatStatus::Optimum);
    return leg;
  };

  obs::Tracer disabled;
  obs::Tracer enabled;
  enabled.setEnabled(true);
  const Leg null_leg = runLeg(nullptr);
  const Leg off_leg = runLeg(&disabled);
  const Leg on_leg = runLeg(&enabled);
  EXPECT_EQ(disabled.emitted(), 0);
  EXPECT_GT(enabled.emitted(), 0);

  for (const Leg* other : {&off_leg, &on_leg}) {
    EXPECT_EQ(null_leg.r.cost, other->r.cost);
    EXPECT_EQ(null_leg.r.satCalls, other->r.satCalls);
    EXPECT_EQ(null_leg.r.iterations, other->r.iterations);
    EXPECT_EQ(null_leg.r.model, other->r.model);
    // Every SolverStats field, via the same X-macro the dump paths use.
    std::vector<std::pair<std::string, std::int64_t>> a, b;
    null_leg.r.satStats.forEachField(
        [&a](const char* n, std::int64_t v) { a.emplace_back(n, v); });
    other->r.satStats.forEachField(
        [&b](const char* n, std::int64_t v) { b.emplace_back(n, v); });
    EXPECT_EQ(a, b);
  }
}

// ---------------------------------------------------------------------
// Histogram bucket boundaries (log2 rule: bucket i holds v <= 2^i).

TEST(Histogram, BucketBoundaryUnits) {
  using obs::Histogram;
  EXPECT_EQ(Histogram::bucketIndex(-5), 0);
  EXPECT_EQ(Histogram::bucketIndex(0), 0);
  EXPECT_EQ(Histogram::bucketIndex(1), 0);
  EXPECT_EQ(Histogram::bucketIndex(2), 1);
  EXPECT_EQ(Histogram::bucketIndex(3), 2);
  EXPECT_EQ(Histogram::bucketIndex(4), 2);
  EXPECT_EQ(Histogram::bucketIndex(5), 3);
  EXPECT_EQ(Histogram::bucketIndex(8), 3);
  EXPECT_EQ(Histogram::bucketIndex(9), 4);
  EXPECT_EQ(Histogram::bucketIndex(1024), 10);
  EXPECT_EQ(Histogram::bucketIndex(1025), 11);
  // Values beyond the largest finite bound land in the +Inf bucket.
  EXPECT_EQ(Histogram::bucketIndex(std::int64_t{1} << 62),
            Histogram::kBuckets - 1);

  EXPECT_EQ(Histogram::bucketUpperBound(0), 1);
  EXPECT_EQ(Histogram::bucketUpperBound(10), 1024);
  EXPECT_EQ(Histogram::bucketUpperBound(Histogram::kBuckets - 1), -1);

  // Boundary inclusivity matches Prometheus le semantics: an
  // observation equal to a bound counts in that bucket.
  Histogram h;
  h.observe(1);
  h.observe(2);
  h.observe(1024);
  h.observe(-3);  // clamps into bucket 0, excluded from the sum
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 1 + 2 + 1024);
  EXPECT_EQ(h.bucketCount(0), 2);
  EXPECT_EQ(h.bucketCount(1), 1);
  EXPECT_EQ(h.bucketCount(10), 1);
}

// ---------------------------------------------------------------------
// Prometheus exposition.

TEST(MetricsRegistry, PrometheusExposition) {
  obs::MetricsRegistry reg;
  reg.counter("msu_jobs_total", "Jobs ever submitted").add(3);
  reg.gauge("msu_queue_depth", "Jobs waiting").set(2);
  obs::Histogram& h = reg.histogram("msu_solve_us", "Solve latency");
  h.observe(1);
  h.observe(3);
  h.observe(std::int64_t{1} << 40);  // +Inf bucket

  std::ostringstream os;
  reg.writeProm(os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# HELP msu_jobs_total Jobs ever submitted\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE msu_jobs_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("msu_jobs_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE msu_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("msu_queue_depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE msu_solve_us histogram\n"), std::string::npos);
  // Cumulative buckets: le="1" holds 1, le="2" still 1, le="4" adds the
  // observation of 3, +Inf holds everything.
  EXPECT_NE(text.find("msu_solve_us_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("msu_solve_us_bucket{le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("msu_solve_us_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("msu_solve_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("msu_solve_us_count 3\n"), std::string::npos);

  // Name order: counter < gauge < histogram alphabetically here.
  EXPECT_LT(text.find("msu_jobs_total"), text.find("msu_queue_depth"));
  EXPECT_LT(text.find("msu_queue_depth"), text.find("msu_solve_us"));

  // Re-registering under a different kind is a naming bug.
  EXPECT_THROW(reg.gauge("msu_jobs_total"), std::logic_error);
  EXPECT_THROW(reg.histogram("msu_queue_depth"), std::logic_error);
  // Find-or-create returns the same instance.
  reg.counter("msu_jobs_total").add(1);
  EXPECT_EQ(reg.counter("msu_jobs_total").value(), 4);
}

// ---------------------------------------------------------------------
// ProgressSink monotone folding.

TEST(ProgressSink, BoundsFoldMonotonically) {
  obs::ProgressSink sink;
  EXPECT_EQ(sink.upper_bound.load(), obs::ProgressSink::kNoUpper);

  sink.noteBounds(2, 10);
  EXPECT_EQ(sink.lower_bound.load(), 2);
  EXPECT_EQ(sink.upper_bound.load(), 10);

  // A stale writer can never loosen either bound.
  sink.noteBounds(1, 12);
  EXPECT_EQ(sink.lower_bound.load(), 2);
  EXPECT_EQ(sink.upper_bound.load(), 10);

  sink.noteBounds(5, 7);
  EXPECT_EQ(sink.lower_bound.load(), 5);
  EXPECT_EQ(sink.upper_bound.load(), 7);

  sink.addConflicts(10);
  sink.addConflicts(-4);  // deltas must be positive to count
  sink.addSatCalls(3);
  EXPECT_EQ(sink.conflicts.load(), 10);
  EXPECT_EQ(sink.sat_calls.load(), 3);

  sink.addMemBytes(1000);
  sink.addMemBytes(-400);  // withdrawal (session destructor) is legal
  EXPECT_EQ(sink.mem_bytes.load(), 600);
}

}  // namespace
}  // namespace msu
