/**
 * @file
 * Tests for src/telemetry: registry semantics (find-or-create, stable
 * references), the Chrome-trace exporter (golden JSON, timestamp
 * sorting, structural validity), the session's global clock, and the
 * SpMM runs a session records — telemetry on must not perturb the
 * simulated result, its counters must be the returned stats, and the
 * emitted trace must be a well-formed, bit-reproducible Chrome-trace
 * file with matched B/E span pairs.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "piuma/spmm_programs.hpp"
#include "telemetry/registry.hpp"
#include "test_fixtures.hpp"
#include "test_paths.hpp"
#include "telemetry/session.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace pgcn;
using telemetry::Registry;
using telemetry::Session;
using telemetry::TraceWriter;
using pgcn_test::twoCores;

// ---------------------------------------------------------------------
// Trace-validation helpers.
// ---------------------------------------------------------------------

/**
 * Minimal recursive-descent JSON syntax checker — enough to assert
 * "Perfetto will not reject this file", without pulling in a JSON
 * dependency.
 */
class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text)
        : p_(text.data()), end_(text.data() + text.size())
    {
    }

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return p_ == end_;
    }

  private:
    const char *p_;
    const char *end_;

    void
    skipWs()
    {
        while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                              *p_ == '\r'))
            ++p_;
    }

    bool
    literal(const char *s)
    {
        for (; *s; ++s, ++p_)
            if (p_ == end_ || *p_ != *s)
                return false;
        return true;
    }

    bool
    string()
    {
        if (p_ == end_ || *p_ != '"')
            return false;
        ++p_;
        while (p_ != end_ && *p_ != '"') {
            if (*p_ == '\\') {
                ++p_;
                if (p_ == end_)
                    return false;
            }
            ++p_;
        }
        if (p_ == end_)
            return false;
        ++p_; // closing quote
        return true;
    }

    bool
    number()
    {
        const char *start = p_;
        if (p_ != end_ && (*p_ == '-' || *p_ == '+'))
            ++p_;
        bool digits = false;
        while (p_ != end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                              *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                              *p_ == '+'))
            digits = true, ++p_;
        return digits && p_ != start;
    }

    bool
    members(char close, bool with_keys)
    {
        skipWs();
        if (p_ != end_ && *p_ == close) {
            ++p_;
            return true;
        }
        while (true) {
            skipWs();
            if (with_keys) {
                if (!string())
                    return false;
                skipWs();
                if (p_ == end_ || *p_ != ':')
                    return false;
                ++p_;
            }
            if (!value())
                return false;
            skipWs();
            if (p_ == end_)
                return false;
            if (*p_ == close) {
                ++p_;
                return true;
            }
            if (*p_ != ',')
                return false;
            ++p_;
        }
    }

    bool
    value()
    {
        skipWs();
        if (p_ == end_)
            return false;
        switch (*p_) {
        case '{':
            ++p_;
            return members('}', true);
        case '[':
            ++p_;
            return members(']', false);
        case '"':
            return string();
        case 't':
            return literal("true");
        case 'f':
            return literal("false");
        case 'n':
            return literal("null");
        default:
            return number();
        }
    }
};

/** One event extracted from a serialised trace line. */
struct ParsedEvent
{
    std::string name;
    double ts = 0.0;
    uint32_t tid = 0;
    char phase = '?';
};

/**
 * Extract events from the writer's one-event-per-line output. Names
 * containing escaped quotes are not handled; the simulator never
 * emits any.
 */
std::vector<ParsedEvent>
parseEvents(const std::string &json)
{
    std::vector<ParsedEvent> out;
    std::istringstream is(json);
    std::string line;
    while (std::getline(is, line)) {
        const size_t ph = line.find("\"ph\":\"");
        if (ph == std::string::npos)
            continue;
        ParsedEvent e;
        e.phase = line[ph + 6];
        const size_t n0 = line.find("\"name\":\"") + 8;
        e.name = line.substr(n0, line.find('"', n0) - n0);
        const size_t t0 = line.find("\"ts\":");
        if (t0 != std::string::npos)
            e.ts = std::strtod(line.c_str() + t0 + 5, nullptr);
        const size_t d0 = line.find("\"tid\":");
        if (d0 != std::string::npos)
            e.tid = static_cast<uint32_t>(
                std::strtoul(line.c_str() + d0 + 6, nullptr, 10));
        out.push_back(e);
    }
    return out;
}

/**
 * Assert @p json is a structurally sound Chrome trace: valid JSON,
 * timestamps monotonic in file order, and every E closing the
 * matching B on its track.
 */
void
expectWellFormedTrace(const std::string &json)
{
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
                         0),
              0u);
    EXPECT_TRUE(JsonValidator(json).valid());

    double last = -std::numeric_limits<double>::infinity();
    std::map<uint32_t, std::vector<std::string>> stacks;
    for (const ParsedEvent &e : parseEvents(json)) {
        if (e.phase == 'M')
            continue; // metadata leads the file and carries no ts
        EXPECT_TRUE(e.phase == 'B' || e.phase == 'E')
            << "unexpected phase " << e.phase;
        EXPECT_GE(e.ts, last) << "timestamps must be monotonic";
        last = e.ts;
        if (e.phase == 'B') {
            stacks[e.tid].push_back(e.name);
        } else if (e.phase == 'E') {
            auto &stack = stacks[e.tid];
            ASSERT_FALSE(stack.empty())
                << "E without open B on tid " << e.tid;
            EXPECT_EQ(stack.back(), e.name);
            stack.pop_back();
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
}

std::string
serialise(const TraceWriter &trace)
{
    std::ostringstream os;
    trace.write(os);
    return os.str();
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

TEST(Registry, CounterFindOrCreateReturnsStableRefs)
{
    Registry reg;
    telemetry::Counter &a = reg.counter("piuma.mem.reads");
    a.add(3.0);
    telemetry::Counter &b = reg.counter("piuma.mem.reads");
    EXPECT_EQ(&a, &b);
    b.increment();
    EXPECT_DOUBLE_EQ(reg.counterValue("piuma.mem.reads"), 4.0);
    EXPECT_EQ(reg.counterCount(), 1u);
}

TEST(Registry, AbsentCounterReadsZero)
{
    Registry reg;
    EXPECT_DOUBLE_EQ(reg.counterValue("never.registered"), 0.0);
    EXPECT_EQ(reg.counterCount(), 0u); // reads must not create
}

TEST(Registry, HistogramShapeFixedByFirstRegistration)
{
    Registry reg;
    Histogram &a = reg.histogram("lat", 0.0, 10.0, 4);
    Histogram &b = reg.histogram("lat", 0.0, 100.0, 64);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.numBuckets(), 4u);
    a.add(5.0);
    const Histogram *found = reg.findHistogram("lat");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->count(), 1u);
    EXPECT_EQ(reg.findHistogram("absent"), nullptr);
}

TEST(Registry, VisitsCountersInLexicographicOrder)
{
    Registry reg;
    reg.counter("b.two").add(2.0);
    reg.counter("a.one").add(1.0);
    reg.counter("c.three").add(3.0);
    std::vector<std::string> order;
    reg.forEachCounter([&](const std::string &name,
                           const telemetry::Counter &c) {
        order.push_back(name);
        (void)c;
    });
    EXPECT_EQ(order,
              (std::vector<std::string>{"a.one", "b.two", "c.three"}));
}

// ---------------------------------------------------------------------
// TraceWriter.
// ---------------------------------------------------------------------

TEST(Trace, InternIsIdempotent)
{
    TraceWriter tw;
    const TraceWriter::NameId a = tw.intern("spmm");
    const TraceWriter::NameId b = tw.intern("dense");
    EXPECT_NE(a, b);
    EXPECT_EQ(tw.intern("spmm"), a);
    EXPECT_EQ(tw.nameOf(a), "spmm");
    EXPECT_EQ(tw.nameOf(b), "dense");
}

TEST(Trace, GoldenJson)
{
    TraceWriter tw;
    tw.setProcessName("pgcn-sim");
    tw.setThreadName(0, "kernels");
    tw.begin(0.0, "spmm \"demo\"", 0);
    tw.end(1500.0, "spmm \"demo\"", 0);

    // Hand-authored expectation pinning the serialised format:
    // metadata first, ts in microseconds with shortest-round-trip
    // formatting, escaped quotes in names.
    const std::string expected = R"({"displayTimeUnit":"ns","traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"pgcn-sim"}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"kernels"}},
{"name":"spmm \"demo\"","ph":"B","ts":0,"pid":0,"tid":0},
{"name":"spmm \"demo\"","ph":"E","ts":1.5,"pid":0,"tid":0}
]}
)";
    EXPECT_EQ(serialise(tw), expected);
    expectWellFormedTrace(serialise(tw));
}

TEST(Trace, SortsByTimestampAtWriteTime)
{
    // Spans are often recorded out of order (an early span's end is
    // known before a later span's begin); the writer must sort.
    TraceWriter tw;
    tw.begin(2000.0, "late", 1);
    tw.end(3000.0, "late", 1);
    tw.begin(0.0, "early", 1);
    tw.end(1000.0, "early", 1);
    expectWellFormedTrace(serialise(tw));

    // write() must not consume the writer: repeat emission matches.
    EXPECT_EQ(serialise(tw), serialise(tw));
    EXPECT_EQ(tw.eventCount(), 4u);
}

// ---------------------------------------------------------------------
// Session.
// ---------------------------------------------------------------------

TEST(SessionTest, GlobalClockConcatenatesKernels)
{
    Session session;
    EXPECT_DOUBLE_EQ(session.beginKernel("a"), 0.0);
    session.endKernel(250.0);
    EXPECT_DOUBLE_EQ(session.beginKernel("b"), 250.0);
    session.endKernel(100.0);
    EXPECT_DOUBLE_EQ(session.runOffsetNs(), 350.0);

    const std::string json = serialise(session.trace());
    expectWellFormedTrace(json);
    EXPECT_NE(json.find("\"a\""), std::string::npos);
    EXPECT_NE(json.find("\"b\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Instrumented SpMM runs.
// ---------------------------------------------------------------------

graph::Csr
tinyGraph()
{
    return graph::normalizedAdjacency(
        graph::generateRmat(6, 600, graph::rmatSkewed(), 7));
}

TEST(SpmmTelemetry, RecordingDoesNotPerturbTheSimulation)
{
    const graph::Csr csr = tinyGraph();
    const piuma::PiumaConfig cfg = twoCores();
    const auto off = piuma::simulateSpmm(csr, 16, cfg,
                                         piuma::SpmmAlgorithm::Dma);
    Session session;
    const auto on = piuma::simulateSpmm(csr, 16, cfg,
                                        piuma::SpmmAlgorithm::Dma,
                                        &session);
    EXPECT_DOUBLE_EQ(on.makespanNs, off.makespanNs);
    EXPECT_EQ(on.simEvents, off.simEvents);
    EXPECT_EQ(on.dmaDescriptors, off.dmaDescriptors);
    EXPECT_EQ(on.nnzReads, off.nnzReads);
    EXPECT_DOUBLE_EQ(on.nnzStallNs, off.nnzStallNs);
    EXPECT_DOUBLE_EQ(on.issueNs, off.issueNs);
}

TEST(SpmmTelemetry, CountersMatchReturnedRunStats)
{
    Session session;
    const auto stats = piuma::simulateSpmm(tinyGraph(), 16, twoCores(),
                                           piuma::SpmmAlgorithm::Dma,
                                           &session);
    const Registry &reg = session.registry();
    EXPECT_DOUBLE_EQ(reg.counterValue("piuma.spmm.makespan_ns"),
                     stats.makespanNs);
    EXPECT_DOUBLE_EQ(reg.counterValue("piuma.spmm.bytes_read"),
                     stats.bytesRead);
    EXPECT_DOUBLE_EQ(reg.counterValue("piuma.spmm.stall.nnz_ns"),
                     stats.nnzStallNs);
    EXPECT_DOUBLE_EQ(reg.counterValue("piuma.dma.descriptors"),
                     static_cast<double>(stats.dmaDescriptors));
    EXPECT_DOUBLE_EQ(reg.counterValue("sim.events"),
                     static_cast<double>(stats.simEvents));
    EXPECT_DOUBLE_EQ(reg.counterValue("piuma.spmm.nnz_reads"),
                     static_cast<double>(stats.nnzReads));
    EXPECT_DOUBLE_EQ(reg.counterValue("piuma.spmm.mem_accesses"),
                     static_cast<double>(stats.memAccesses));
    EXPECT_DOUBLE_EQ(reg.counterValue("piuma.spmm.remote_accesses"),
                     static_cast<double>(stats.memRemoteAccesses));
}

TEST(SpmmTelemetry, TraceIsStructurallyValid)
{
    Session session;
    piuma::simulateSpmm(tinyGraph(), 16, twoCores(),
                        piuma::SpmmAlgorithm::Dma, &session);
    const std::string json = serialise(session.trace());
    expectWellFormedTrace(json);
    // One kernel span on track 0; counters go to the metrics CSV only.
    EXPECT_NE(json.find("\"spmm/dma/k=16\""), std::string::npos);
    EXPECT_EQ(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(SpmmTelemetry, TraceIsBitReproducible)
{
    const graph::Csr csr = tinyGraph();
    const auto run = [&csr] {
        Session session;
        piuma::simulateSpmm(csr, 16, twoCores(),
                            piuma::SpmmAlgorithm::Dma, &session);
        return serialise(session.trace());
    };
    EXPECT_EQ(run(), run());
}

TEST(SpmmTelemetry, MetricsCsvHasSeriesCountersAndSummaries)
{
    Session session;
    piuma::simulateSpmm(tinyGraph(), 16, twoCores(),
                        piuma::SpmmAlgorithm::Dma, &session);

    const std::string path = pgcn_test::testPath("metrics.csv");
    session.writeMetricsCsv(path);
    const std::string csv = pgcn_test::slurp(path);
    EXPECT_EQ(csv.rfind("t_ns,metric,value\n", 0), 0u);
    EXPECT_NE(csv.find("piuma.spmm.makespan_ns"), std::string::npos);
    EXPECT_NE(csv.find("piuma.dma.descriptors"), std::string::npos);
    // Final values only: every row is stamped at the end of the run.
    char end[64];
    std::snprintf(end, sizeof(end), "%.9g,", session.runOffsetNs());
    std::istringstream rows(csv);
    std::string row;
    std::getline(rows, row); // header
    size_t n = 0;
    for (; std::getline(rows, row); ++n)
        EXPECT_EQ(row.rfind(end, 0), 0u) << row;
    EXPECT_GT(n, 0u);
    std::remove(path.c_str());
}

} // namespace
