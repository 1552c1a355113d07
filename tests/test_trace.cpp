// Observability subsystem tests: event rings (span nesting, wraparound),
// cross-kernel metrics merging, and the Chrome trace_event exporter —
// including a round-trip through a real JSON parser and a whole-machine
// migration trace.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/balance/balance.hpp"
#include "rko/core/migration.hpp"
#include "rko/sim/actor.hpp"
#include "rko/sim/engine.hpp"
#include "rko/smp/smp.hpp"
#include "rko/trace/metrics.hpp"
#include "rko/trace/trace.hpp"

namespace rko::trace {
namespace {

using namespace rko::time_literals;

TraceConfig enabled_config(std::size_t ring_capacity = 1 << 10) {
    TraceConfig config;
    config.enabled = true;
    config.ring_capacity = ring_capacity;
    return config;
}

// --- A minimal JSON value + recursive-descent parser, enough to round-trip
// the exporter's output without external dependencies. ---

struct JsonValue {
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
    Type type = Type::kNull;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue& at(const std::string& key) const {
        static const JsonValue kNullValue;
        auto it = object.find(key);
        return it == object.end() ? kNullValue : it->second;
    }
    bool has(const std::string& key) const { return object.contains(key); }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    bool parse(JsonValue* out) {
        const bool ok = value(out);
        skip_ws();
        return ok && pos_ == text_.size();
    }

private:
    void skip_ws() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
            ++pos_;
        }
    }
    bool consume(char c) {
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }
    bool literal(const char* word) {
        skip_ws();
        const std::size_t len = std::string_view(word).size();
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    bool value(JsonValue* out) {
        skip_ws();
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
        case '{': return object(out);
        case '[': return array(out);
        case '"': out->type = JsonValue::Type::kString; return string(&out->string);
        case 't': out->type = JsonValue::Type::kBool; out->boolean = true;
                  return literal("true");
        case 'f': out->type = JsonValue::Type::kBool; out->boolean = false;
                  return literal("false");
        case 'n': return literal("null");
        default:  return number(out);
        }
    }
    bool string(std::string* out) {
        if (!consume('"')) return false;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
                ++pos_;
                switch (text_[pos_]) {
                case 'n': *out += '\n'; break;
                case 't': *out += '\t'; break;
                default: *out += text_[pos_]; break;
                }
            } else {
                *out += text_[pos_];
            }
            ++pos_;
        }
        return consume('"');
    }
    bool number(JsonValue* out) {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
                text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start) return false;
        out->type = JsonValue::Type::kNumber;
        out->number = std::stod(text_.substr(start, pos_ - start));
        return true;
    }
    bool array(JsonValue* out) {
        out->type = JsonValue::Type::kArray;
        if (!consume('[')) return false;
        if (consume(']')) return true;
        do {
            JsonValue element;
            if (!value(&element)) return false;
            out->array.push_back(std::move(element));
        } while (consume(','));
        return consume(']');
    }
    bool object(JsonValue* out) {
        out->type = JsonValue::Type::kObject;
        if (!consume('{')) return false;
        if (consume('}')) return true;
        do {
            std::string key;
            if (!string(&key)) return false;
            if (!consume(':')) return false;
            JsonValue element;
            if (!value(&element)) return false;
            out->object[key] = std::move(element);
        } while (consume(','));
        return consume('}');
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

// --- Event ring behaviour ---

TEST(Trace, DisabledTracerRecordsNothing) {
    sim::Engine engine;
    Tracer tracer(2, TraceConfig{}); // default: disabled
    engine.set_tracer(&tracer);
    EXPECT_EQ(active(engine), nullptr);
    tracer.instant(engine, 0, "ignored");
    tracer.span(engine, 0, "ignored", 0);
    EXPECT_EQ(tracer.event_count(0), 0u);
    engine.set_tracer(nullptr);
}

TEST(Trace, SpanNestingRecordsBothLevels) {
    sim::Engine engine;
    Tracer tracer(1, enabled_config());
    engine.set_tracer(&tracer);
    sim::Actor worker(engine, "worker", [&](sim::Actor& self) {
        Span outer(engine, 0, "outer");
        self.sleep_for(1_us);
        {
            Span inner(engine, 0, "inner", /*arg=*/42);
            self.sleep_for(2_us);
        }
        self.sleep_for(1_us);
    });
    worker.start();
    engine.run();

    const auto events = tracer.snapshot(0);
    ASSERT_EQ(events.size(), 2u);
    // RAII order: the inner span ends (and records) first.
    const Event& inner = events[0];
    const Event& outer = events[1];
    EXPECT_EQ(tracer.string_at(inner.name), "inner");
    EXPECT_EQ(tracer.string_at(outer.name), "outer");
    EXPECT_EQ(tracer.string_at(inner.track), "worker");
    EXPECT_EQ(inner.arg, 42u);
    // The inner interval nests strictly inside the outer one.
    EXPECT_GE(inner.ts, outer.ts);
    EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur);
    EXPECT_EQ(inner.dur, 2000);
    EXPECT_EQ(outer.dur, 4000);
    engine.set_tracer(nullptr);
}

TEST(Trace, RingWrapsKeepingNewestEvents) {
    sim::Engine engine;
    Tracer tracer(1, enabled_config(/*ring_capacity=*/8));
    engine.set_tracer(&tracer);
    sim::Actor worker(engine, "worker", [&](sim::Actor& self) {
        for (int i = 0; i < 20; ++i) {
            tracer.instant(engine, 0, "tick", static_cast<std::uint64_t>(i));
            self.sleep_for(1_us);
        }
    });
    worker.start();
    engine.run();

    EXPECT_EQ(tracer.event_count(0), 8u);
    EXPECT_EQ(tracer.dropped(0), 12u);
    const auto events = tracer.snapshot(0);
    ASSERT_EQ(events.size(), 8u);
    // Oldest -> newest, and only the last 8 ticks (12..19) survive.
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].arg, 12 + i);
        if (i > 0) EXPECT_GT(events[i].ts, events[i - 1].ts);
    }
    engine.set_tracer(nullptr);
}

// --- Metrics registry ---

TEST(Trace, MetricsRegistryMergesAcrossKernels) {
    Tracer tracer(2, TraceConfig{}); // metrics live even when events are off
    tracer.metrics(0).counter("faults").inc(3);
    tracer.metrics(1).counter("faults").inc(4);
    tracer.metrics(1).counter("only_k1").inc();
    tracer.metrics(0).gauge("load").add(0.5);
    tracer.metrics(1).gauge("load").add(1.5);
    tracer.metrics(0).histogram("lat_ns").add(100);
    tracer.metrics(1).histogram("lat_ns").add(300);

    const MetricsRegistry merged = tracer.merged_metrics();
    ASSERT_NE(merged.find_counter("faults"), nullptr);
    EXPECT_EQ(merged.find_counter("faults")->value, 7u);
    EXPECT_EQ(merged.find_counter("only_k1")->value, 1u);
    EXPECT_DOUBLE_EQ(merged.find_gauge("load")->value, 2.0);
    const base::Histogram* lat = merged.find_histogram("lat_ns");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count(), 2u);
    EXPECT_EQ(lat->min(), 100);
    EXPECT_EQ(lat->max(), 300);
}

TEST(Trace, RegistryReferencesStayValidAcrossInserts) {
    MetricsRegistry registry;
    Counter& first = registry.counter("a");
    for (int i = 0; i < 100; ++i) {
        registry.counter("name" + std::to_string(i)).inc();
    }
    first.inc(5);
    EXPECT_EQ(registry.find_counter("a")->value, 5u);
}

// --- Chrome trace_event export ---

TEST(Trace, ChromeTraceRoundTripsThroughParser) {
    sim::Engine engine;
    Tracer tracer(2, enabled_config());
    engine.set_tracer(&tracer);
    sim::Actor worker(engine, "worker", [&](sim::Actor& self) {
        const std::uint64_t flow = tracer.next_flow_id();
        tracer.flow_begin(engine, 0, "msg", flow);
        {
            Span span(engine, 0, "send", /*arg=*/64);
            self.sleep_for(3_us);
        }
        tracer.flow_end(engine, 1, "msg", flow);
        tracer.instant(engine, 1, "handled");
    });
    worker.start();
    engine.run();

    std::string json;
    tracer.write_chrome_trace(&json);
    JsonValue root;
    ASSERT_TRUE(JsonParser(json).parse(&root)) << json;
    const JsonValue& events = root.at("traceEvents");
    ASSERT_EQ(events.type, JsonValue::Type::kArray);

    bool saw_span = false, saw_flow_begin = false, saw_flow_end = false,
         saw_instant = false, saw_process_meta = false;
    double flow_begin_id = -1, flow_end_id = -2;
    for (const JsonValue& e : events.array) {
        const std::string& ph = e.at("ph").string;
        const std::string& name = e.at("name").string;
        if (ph == "M" && name == "process_name") saw_process_meta = true;
        if (ph == "X" && name == "send") {
            saw_span = true;
            EXPECT_DOUBLE_EQ(e.at("dur").number, 3.0); // 3 us
            EXPECT_DOUBLE_EQ(e.at("pid").number, 0.0);
            EXPECT_DOUBLE_EQ(e.at("args").at("arg").number, 64.0);
        }
        if (ph == "s") { saw_flow_begin = true; flow_begin_id = e.at("id").number; }
        if (ph == "f") {
            saw_flow_end = true;
            flow_end_id = e.at("id").number;
            EXPECT_EQ(e.at("bp").string, "e");
            EXPECT_DOUBLE_EQ(e.at("pid").number, 1.0);
        }
        if (ph == "i" && name == "handled") saw_instant = true;
    }
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_flow_begin);
    EXPECT_TRUE(saw_flow_end);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_process_meta);
    EXPECT_DOUBLE_EQ(flow_begin_id, flow_end_id);
    engine.set_tracer(nullptr);
}

// --- Whole-machine: one migration shows up as the paper's phases on two
// kernel tracks, linked by flow arrows. ---

TEST(Trace, MachineMigrationProducesPhaseSpansAndFlows) {
    api::MachineConfig config;
    config.ncores = 4;
    config.nkernels = 2;
    config.frames_per_kernel = 4096;
    config.trace = enabled_config();
    config.trace.path.clear(); // no file output from this test
    api::Machine machine(config);
    auto& process = machine.create_process(0);
    process.spawn([](api::Guest& g) { g.migrate(1); }, 0);
    machine.run();
    process.check_all_joined();

    const auto span_names = [&](topo::KernelId k) {
        std::set<std::string> names;
        for (const Event& e : machine.tracer().snapshot(k)) {
            if (e.kind == EventKind::kSpan) {
                names.insert(machine.tracer().string_at(e.name));
            }
        }
        return names;
    };
    const auto k0 = span_names(0);
    const auto k1 = span_names(1);
    EXPECT_TRUE(k0.contains("migrate.checkpoint"));
    EXPECT_TRUE(k0.contains("migrate.transfer"));
    EXPECT_TRUE(k1.contains("migrate.instantiate"));
    EXPECT_TRUE(k1.contains("migrate.resume"));

    // Every cross-kernel flow arrow that landed has a matching begin.
    std::set<std::uint64_t> begins, ends;
    for (topo::KernelId k = 0; k < 2; ++k) {
        for (const Event& e : machine.tracer().snapshot(k)) {
            if (e.kind == EventKind::kFlowBegin) begins.insert(e.id);
            if (e.kind == EventKind::kFlowEnd) ends.insert(e.id);
        }
    }
    EXPECT_FALSE(ends.empty());
    for (const std::uint64_t id : ends) EXPECT_TRUE(begins.contains(id));

    // The merged machine metrics saw exactly one outbound migration.
    const MetricsRegistry merged = machine.collect_metrics();
    ASSERT_NE(merged.find_counter("migration.out"), nullptr);
    EXPECT_EQ(merged.find_counter("migration.out")->value, 1u);
    EXPECT_GE(merged.find_counter("msg.sent")->value, 1u);
    ASSERT_NE(merged.find_histogram("migration.total_ns"), nullptr);
    EXPECT_EQ(merged.find_histogram("migration.total_ns")->count(), 1u);
}

TEST(Trace, ConfigStampTellsBalancePoliciesApart) {
    // Bench JSON records one entry per distinct machine a bench built. Two
    // machines that differ only in balance policy are two machines.
    auto config = smp::popcorn_config(6, 3);
    config.prefetch_window = 7; // a window no other machine in the suite uses
    config.balance.policy = balance::Policy::kNone;
    const std::size_t before = api::Machine::process_configs().size();
    { const api::Machine machine(config); }
    config.balance.policy = balance::Policy::kAffinity;
    { const api::Machine machine(config); }
    const auto& stamps = api::Machine::process_configs();
    ASSERT_EQ(stamps.size(), before + 2);
    EXPECT_EQ(stamps[before].balance, balance::Policy::kNone);
    EXPECT_EQ(stamps[before + 1].balance, balance::Policy::kAffinity);
    EXPECT_EQ(stamps[before + 1].elastic, config.elastic.enabled);
    EXPECT_EQ(stamps[before + 1].read_replication, config.read_replication);
    EXPECT_EQ(stamps[before + 1].futex_hierarchy, config.futex_hierarchy);
}

TEST(Trace, ConfigFromEnvSemantics) {
    // Not a full matrix (setenv in-process); just the parsing helper on
    // whatever the ambient environment says — it must not crash and the
    // default must be off unless RKO_TRACE is set.
    const TraceConfig config = TraceConfig::from_env();
    if (std::getenv("RKO_TRACE") == nullptr) {
        EXPECT_FALSE(config.enabled);
        EXPECT_TRUE(config.path.empty());
    }
}

} // namespace
} // namespace rko::trace
