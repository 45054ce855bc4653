#include "api/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "api/report.hpp"
#include "common/check.hpp"
#include "common/parse.hpp"

namespace btwc {

std::string
tiers_spec_string(const TierChainConfig &config)
{
    std::string out;
    for (const TierSpec &tier : config.tiers) {
        out += out.empty() ? "" : ",";
        // The grammar's short "uf"; every other tier prints its name.
        out += tier.kind == DecoderTier::UnionFind
                   ? "uf"
                   : decoder_tier_name(tier.kind);
        // Union-Find thresholds are always explicit (a bare "uf" would
        // re-parse under the caller's uf_threshold default); the other
        // tiers default to -1 (never escalate on effort).
        if (tier.kind == DecoderTier::UnionFind ||
            tier.escalation_threshold != -1) {
            out += ':';
            out += std::to_string(tier.escalation_threshold);
        }
    }
    return out;
}

namespace {

/** TierChainConfig::parse's threshold for bare "uf" tiers. */
constexpr int kDefaultUfThreshold = 2;

void
set_error(std::string *error, const std::string &message)
{
    if (error != nullptr) {
        *error = message;
    }
}

// ------------------------------------------------------- value names

/** One spelling of an enum value; a value's first spelling is canonical. */
template <typename T>
struct Name
{
    const char *text;
    T value;
};

const Name<ScenarioKind> kKindNames[] = {
    {"lifetime", ScenarioKind::Lifetime},
    {"memory", ScenarioKind::Memory},
    {"fleet", ScenarioKind::Fleet},
    {"exact-fleet", ScenarioKind::ExactFleet},
    {"exact_fleet", ScenarioKind::ExactFleet},
    {"exactfleet", ScenarioKind::ExactFleet},
    {"stream", ScenarioKind::Stream},
    {"fabric", ScenarioKind::Fabric},
};
const Name<CheckType> kErrorTypeNames[] = {
    {"x", CheckType::X}, {"X", CheckType::X},
    {"z", CheckType::Z}, {"Z", CheckType::Z},
};
const Name<LifetimeMode> kModeNames[] = {
    {"signature", LifetimeMode::Signature},
    {"pipeline", LifetimeMode::Pipeline},
};
const Name<OffchipPolicy> kPolicyNames[] = {
    {"oracle", OffchipPolicy::Oracle},
    {"mwpm", OffchipPolicy::Mwpm}, {"real", OffchipPolicy::Mwpm},
};
const Name<DecoderArm> kArmNames[] = {
    {"clique", DecoderArm::CliqueMwpm},
    {"clique+mwpm", DecoderArm::CliqueMwpm},
    {"mwpm", DecoderArm::MwpmOnly},
    {"uf", DecoderArm::UnionFindOnly},
    {"union-find", DecoderArm::UnionFindOnly},
};

template <typename T, size_t N>
const char *
name_of(const Name<T> (&names)[N], T value)
{
    for (const Name<T> &name : names) {
        if (name.value == value) {
            return name.text;
        }
    }
    return "?";
}

/**
 * "a | b | c": the canonical spelling of each value whose bit
 * (`1 << value`) is set in `values`, for diagnostics.
 */
template <typename T, size_t N>
std::string
name_list(const Name<T> (&names)[N], uint32_t values = ~0u)
{
    std::string out;
    for (const Name<T> &name : names) {
        // name_of returns the first entry of a value: the canonical one.
        if (((values >> static_cast<unsigned>(name.value)) & 1u) != 0 &&
            name_of(names, name.value) == name.text) {
            out += out.empty() ? "" : " | ";
            out += name.text;
        }
    }
    return out;
}

// ------------------------------------------------------ typed values

/**
 * Strict parse of one field value: ints within `int`, counts
 * (uint64_t) non-negative, doubles never NaN. `out` is written only
 * on success.
 */
template <typename T>
bool
parse_value(const std::string &text, T *out)
{
    if constexpr (std::is_same_v<T, bool>) {
        return parse_bool(text, out);
    } else if constexpr (std::is_same_v<T, int>) {
        return parse_int(text, out);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
        int64_t n = 0;
        if (!parse_i64(text, &n) || n < 0) {
            return false;
        }
        *out = static_cast<uint64_t>(n);
        return true;
    } else {
        double v = 0.0;
        if (!parse_f64(text, &v) || std::isnan(v)) {
            return false;
        }
        *out = v;
        return true;
    }
}

template <typename T>
std::string
print_value(T v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_same_v<T, double>) {
        return format_double(v);
    } else {
        return std::to_string(v);
    }
}

/** What `parse_value` accepts within [lo, hi], for diagnostics. */
template <typename T>
std::string
describe_range(T lo, T hi)
{
    if constexpr (std::is_same_v<T, bool>) {
        return "a boolean";
    } else if constexpr (std::is_same_v<T, uint64_t>) {
        return "a non-negative integer";  // every count spans [0, max]
    } else {
        return std::string(std::is_same_v<T, int> ? "an integer"
                                                  : "a number") +
               " in [" + print_value(lo) + ", " + print_value(hi) + "]";
    }
}

// ---------------------------------------------------------- key table

/** What a spec string or flag set assigns: the spec + parse-only inputs. */
struct SpecBuilder
{
    ScenarioSpec spec;
    int uf_threshold = kDefaultUfThreshold;  ///< for bare "uf" tiers
    bool uf_threshold_set = false;
    std::string tiers;  ///< pending tier list, resolved by finish_tiers
    bool tiers_set = false;
};

const ScenarioSpec &
default_spec()
{
    static const ScenarioSpec kDefault;
    return kDefault;
}

/**
 * A row's typed behavior. `parse` stores a valid value (or returns
 * false with the expected form in `detail`, leaving the builder as it
 * was); `print` appends the canonical value text (empty: the key never
 * prints); `is_default` compares the value with the default spec's
 * (its int is the parse-only uf_threshold; to_string passes the
 * default).
 */
struct Codec
{
    std::function<bool(SpecBuilder &, const std::string &, std::string *)>
        parse;
    std::function<void(const ScenarioSpec &, std::string &)> print;
    std::function<bool(const ScenarioSpec &, int uf_threshold)> is_default;
};

template <typename Get>
using FieldOf = std::remove_cv_t<std::remove_reference_t<
    decltype(std::declval<Get>()(std::declval<ScenarioSpec &>()))>>;

/** The is-default test of a plain field: compare with the default spec. */
template <typename Get>
auto
equals_default(Get get)
{
    return [get](const ScenarioSpec &s, int) {
        return get(s) == get(default_spec());
    };
}

/**
 * A number or boolean field, valid in [lo, hi]. `get` is a generic
 * lambda `(auto &spec) -> auto &` naming the field, so one accessor
 * serves the parse (mutable) and the print / compare (const) paths.
 */
template <typename Get>
Codec
field(Get get, FieldOf<Get> lo = std::numeric_limits<FieldOf<Get>>::lowest(),
      FieldOf<Get> hi = std::numeric_limits<FieldOf<Get>>::max())
{
    using T = FieldOf<Get>;
    Codec codec;
    codec.parse = [get, lo, hi](SpecBuilder &b, const std::string &text,
                                std::string *detail) {
        T value{};
        if (!parse_value(text, &value) || value < lo || hi < value) {
            set_error(detail, "expected " + describe_range(lo, hi));
            return false;
        }
        get(b.spec) = value;
        return true;
    };
    codec.print = [get](const ScenarioSpec &s, std::string &out) {
        out += print_value(get(s));
    };
    codec.is_default = equals_default(get);
    return codec;
}

/**
 * An enum field: `parse(text, &value)` stores a named value (false on
 * an unknown name), `name(value)` gives its canonical spelling.
 */
template <typename Get, typename Parse, typename Print>
Codec
choice(Get get, Parse parse, Print name, const std::string &expected)
{
    Codec codec;
    codec.parse = [get, parse, expected](SpecBuilder &b,
                                         const std::string &text,
                                         std::string *detail) {
        if (!parse(text, &get(b.spec))) {
            set_error(detail, "expected " + expected);
            return false;
        }
        return true;
    };
    codec.print = [get, name](const ScenarioSpec &s, std::string &out) {
        out += name(get(s));
    };
    codec.is_default = equals_default(get);
    return codec;
}

/** An enum field spelled by a Name table. */
template <typename Get, typename T, size_t N>
Codec
choice(Get get, const Name<T> (&names)[N])
{
    const auto parse = [&names](const std::string &text, T *out) {
        for (const Name<T> &name : names) {
            if (text == name.text) {
                *out = name.value;
                return true;
            }
        }
        return false;
    };
    const auto print = [&names](T value) { return name_of(names, value); };
    return choice(get, parse, print, name_list(names));
}

/** Tier by tier equal in kind and threshold (what describe() shows). */
bool
same_chain(const TierChainConfig &a, const TierChainConfig &b)
{
    return std::equal(a.tiers.begin(), a.tiers.end(), b.tiers.begin(),
                      b.tiers.end(),
                      [](const TierSpec &x, const TierSpec &y) {
                          return x.kind == y.kind &&
                                 x.escalation_threshold ==
                                     y.escalation_threshold;
                      });
}

/** tiers=: collected here, resolved by finish_tiers once all keys are in. */
Codec
tiers_codec()
{
    Codec codec;
    codec.parse = [](SpecBuilder &b, const std::string &text,
                     std::string *) {
        b.tiers = text;
        b.tiers_set = true;
        return true;
    };
    codec.print = [](const ScenarioSpec &s, std::string &out) {
        out += tiers_spec_string(s.tiers);
    };
    codec.is_default = [](const ScenarioSpec &s, int) {
        return same_chain(s.tiers, default_spec().tiers);
    };
    return codec;
}

/** uf_threshold=: a parse-only input folded into the tiers it resolves. */
Codec
uf_threshold_codec()
{
    Codec codec;
    codec.parse = [](SpecBuilder &b, const std::string &text,
                     std::string *detail) {
        if (!parse_value(text, &b.uf_threshold)) {
            set_error(detail,
                      "expected " + describe_range(
                                        std::numeric_limits<int>::min(),
                                        std::numeric_limits<int>::max()));
            return false;
        }
        b.uf_threshold_set = true;
        return true;
    };
    codec.is_default = [](const ScenarioSpec &, int uf_threshold) {
        return uf_threshold == kDefaultUfThreshold;
    };
    return codec;
}

Codec
faults_codec()
{
    Codec codec;
    codec.parse = [](SpecBuilder &b, const std::string &text,
                     std::string *detail) {
        return FaultPlan::try_parse(text, &b.spec.service.faults, detail);
    };
    codec.print = [](const ScenarioSpec &s, std::string &out) {
        out += s.service.faults.to_string();
    };
    codec.is_default = [](const ScenarioSpec &s, int) {
        return !s.service.faults.enabled;
    };
    return codec;
}

/** threads=: any int; negative clamps to 0 (all cores). */
Codec
threads_codec()
{
    Codec codec = field([](auto &s) -> auto & { return s.engine.threads; });
    codec.parse = [parse = codec.parse](SpecBuilder &b,
                                        const std::string &text,
                                        std::string *detail) {
        if (!parse(b, text, detail)) {
            return false;
        }
        b.spec.engine.threads = std::max(b.spec.engine.threads, 0);
        return true;
    };
    return codec;
}

/** audit=: an AuditLevel stored as int; negative = process default. */
Codec
audit_codec()
{
    Codec codec;
    codec.parse = [](SpecBuilder &b, const std::string &text,
                     std::string *detail) {
        AuditLevel level = AuditLevel::Off;
        if (!parse_audit_level(text, &level)) {
            set_error(detail, "expected off | basic | deep");
            return false;
        }
        b.spec.engine.audit = static_cast<int>(level);
        return true;
    };
    codec.print = [](const ScenarioSpec &s, std::string &out) {
        out += audit_level_name(static_cast<AuditLevel>(s.engine.audit));
    };
    codec.is_default = [](const ScenarioSpec &s, int) {
        return s.engine.audit < 0;
    };
    return codec;
}

/** The kind always prints, so every canonical string starts kind=. */
Codec
kind_codec()
{
    Codec codec = choice([](auto &s) -> auto & { return s.kind; },
                         kKindNames);
    codec.is_default = [](const ScenarioSpec &, int) { return false; };
    return codec;
}

constexpr uint32_t
kind_bit(ScenarioKind kind)
{
    return 1u << static_cast<unsigned>(kind);
}

constexpr uint32_t kLifetime = kind_bit(ScenarioKind::Lifetime);
constexpr uint32_t kMemory = kind_bit(ScenarioKind::Memory);
constexpr uint32_t kFleet = kind_bit(ScenarioKind::Fleet);
constexpr uint32_t kExactFleet = kind_bit(ScenarioKind::ExactFleet);
constexpr uint32_t kStream = kind_bit(ScenarioKind::Stream);
constexpr uint32_t kFabric = kind_bit(ScenarioKind::Fabric);
constexpr uint32_t kAllKinds =
    kLifetime | kMemory | kFleet | kExactFleet | kStream | kFabric;

/** Row traits. */
enum : unsigned
{
    kBareName = 1u,       ///< booleans: a bare spelling means `=true`
    kBareValues = 2u,     ///< kind, mode: a bare value name means `=name`
    kTierList = 4u,       ///< bare tier tokens after it continue its value
    kMetricNeutral = 8u,  ///< see ScenarioKey::metric_neutral
};

/** A historical boolean flag that assigns one value (`--pipeline`). */
struct Shortcut
{
    const char *token = nullptr;
    const char *value = nullptr;
};

/**
 * One grammar key: its spellings (`[0]` canonical; each is accepted
 * alike as `key=` and `--flag`), the kinds that read it, its typed
 * codec, how bare tokens name it, and its flag shortcut if any.
 */
struct Row
{
    std::vector<std::string> spellings;
    uint32_t kinds;
    Codec codec;
    unsigned traits = 0;
    Shortcut shortcut = {};
};

/**
 * The key table, in canonical (`to_string`) order. try_parse,
 * to_string, apply_flags, scenario_override_flags and the ownership
 * check all loop over these rows; src/api/README.md's grammar table
 * mirrors them (tests/test_api.cpp checks the two agree).
 */
const std::vector<Row> &
rows()
{
    static const std::vector<Row> kRows = {
        {{"kind"}, kAllKinds, kind_codec(), kBareValues},
        {{"d", "distance"}, kAllKinds & ~kFleet,
         field([](auto &s) -> auto & { return s.code.distance; }, 3)},
        {{"p"}, kAllKinds & ~kFleet,
         field([](auto &s) -> auto & { return s.code.p; }, 0.0, 1.0)},
        {{"p_meas"}, kLifetime | kMemory | kStream,
         field([](auto &s) -> auto & { return s.code.p_meas; },
               -HUGE_VAL, 1.0)},
        {{"filter", "filter_rounds"}, kLifetime | kMemory,
         field([](auto &s) -> auto & { return s.code.filter_rounds; }, 1)},
        {{"rounds"}, kMemory,
         field([](auto &s) -> auto & { return s.code.rounds; }, 0)},
        {{"error_type"}, kMemory | kStream,
         choice([](auto &s) -> auto & { return s.code.error_type; },
                kErrorTypeNames)},
        {{"window"}, kStream,
         field([](auto &s) -> auto & { return s.stream.window; }, 1)},
        {{"overlap"}, kStream,
         field([](auto &s) -> auto & { return s.stream.overlap; }, 0)},
        {{"tiers"}, kLifetime | kExactFleet | kStream | kFabric,
         tiers_codec(), kTierList},
        {{"uf_threshold"}, kLifetime | kExactFleet | kStream | kFabric,
         uf_threshold_codec()},
        {{"mode"}, kLifetime,
         choice([](auto &s) -> auto & { return s.mode; }, kModeNames),
         kBareValues, {"pipeline", "pipeline"}},
        {{"policy"}, kLifetime | kExactFleet | kFabric,
         choice([](auto &s) -> auto & { return s.service.policy; },
                kPolicyNames),
         0, {"real_offchip", "mwpm"}},
        {{"arm"}, kMemory,
         choice([](auto &s) -> auto & { return s.arm; }, kArmNames)},
        {{"weighted"}, kMemory,
         field([](auto &s) -> auto & { return s.weighted_matching; }),
         kBareName},
        {{"latency", "offchip-latency"},
         kLifetime | kFleet | kExactFleet | kFabric,
         field([](auto &s) -> auto & { return s.service.latency; })},
        {{"bandwidth", "offchip-bandwidth"},
         kLifetime | kFleet | kExactFleet | kFabric,
         field([](auto &s) -> auto & { return s.service.bandwidth; })},
        {{"batch"}, kLifetime | kFleet | kExactFleet | kFabric,
         field([](auto &s) -> auto & { return s.service.batch; })},
        {{"shared", "shared-link"}, kExactFleet,
         field([](auto &s) -> auto & { return s.service.shared_link; }),
         kBareName},
        {{"scheduler"}, kFabric,
         choice([](auto &s) -> auto & { return s.service.scheduler; },
                parse_scheduler_kind, scheduler_kind_name,
                "fifo | priority | deadline | wfq")},
        {{"links"}, kFabric,
         field([](auto &s) -> auto & { return s.service.links; }, 1)},
        {{"placement"}, kFabric,
         choice([](auto &s) -> auto & { return s.service.placement; },
                parse_placement_kind, placement_kind_name,
                "hash | least-loaded | isolate")},
        {{"deadline"}, kFabric,
         field([](auto &s) -> auto & { return s.service.deadline; })},
        {{"faults"}, kExactFleet | kFabric, faults_codec()},
        {{"timeout"}, kFabric,
         field([](auto &s) -> auto & { return s.service.timeout; })},
        {{"retries"}, kFabric,
         field([](auto &s) -> auto & { return s.service.retries; }, 0)},
        {{"shed"}, kFabric,
         field([](auto &s) -> auto & { return s.service.shed; }),
         kBareName},
        {{"migrate"}, kFabric,
         field([](auto &s) -> auto & { return s.service.migrate; })},
        {{"fleet", "fleet_size", "fleet-size"}, kExactFleet | kFabric,
         field([](auto &s) -> auto & { return s.service.fleet_size; }, 1)},
        {{"qubits"}, kFleet,
         field([](auto &s) -> auto & { return s.service.num_qubits; }, 1)},
        {{"q"}, kFleet,
         field([](auto &s) -> auto & { return s.service.offchip_prob; },
               0.0, 1.0)},
        {{"hot_fraction", "hot-fraction"}, kFleet | kExactFleet | kFabric,
         field([](auto &s) -> auto & { return s.service.hot_fraction; },
               0.0, 1.0)},
        {{"hot_mult", "hot-mult"}, kFleet | kExactFleet | kFabric,
         field([](auto &s) -> auto & { return s.service.hot_mult; }, 0.0,
               HUGE_VAL)},
        {{"cycles"}, kAllKinds & ~kMemory,
         field([](auto &s) -> auto & { return s.engine.cycles; })},
        {{"trials"}, kMemory,
         field([](auto &s) -> auto & { return s.engine.trials; })},
        {{"failures"}, kMemory,
         field([](auto &s) -> auto & { return s.engine.target_failures; })},
        {{"threads"}, kAllKinds, threads_codec(), kMetricNeutral},
        {{"seed"}, kAllKinds,
         field([](auto &s) -> auto & { return s.engine.seed; })},
        {{"audit"}, kAllKinds, audit_codec(), kMetricNeutral},
    };
    return kRows;
}

const Row *
find_row(const std::string &spelling)
{
    for (const Row &row : rows()) {
        for (const std::string &name : row.spellings) {
            if (name == spelling) {
                return &row;
            }
        }
    }
    return nullptr;
}

/** Parse `value` into `row`, with a diagnostic naming the spelling used. */
bool
apply(const Row &row, const std::string &spelling, const std::string &value,
      SpecBuilder &b, std::string *error)
{
    std::string detail;
    if (row.codec.parse(b, value, &detail)) {
        return true;
    }
    set_error(error, "bad " + spelling + " '" + value + "'; " + detail);
    return false;
}

/** Apply a token without '=': a bare boolean name or a bare value. */
bool
apply_bare(const std::string &token, SpecBuilder &b)
{
    for (const Row &row : rows()) {
        const char *value = nullptr;
        if ((row.traits & kBareName) != 0 &&
                   std::find(row.spellings.begin(), row.spellings.end(),
                             token) != row.spellings.end()) {
            value = "true";
        } else if ((row.traits & kBareValues) != 0) {
            value = token.c_str();
        }
        if (value != nullptr && row.codec.parse(b, value, nullptr)) {
            return true;
        }
    }
    return false;
}

/** True if `token` (e.g. "uf:3") is one tier of the --tiers grammar. */
bool
is_tier_token(const std::string &token)
{
    TierChainConfig unused;
    return TierChainConfig::try_parse(token, kDefaultUfThreshold, &unused,
                                      nullptr);
}

/** Resolve the collected tier list (after every key is in). */
bool
finish_tiers(SpecBuilder &b, std::string *error)
{
    if (!b.tiers_set) {
        // No new tier list, but an explicit uf_threshold still
        // re-thresholds the already-resolved chain's Union-Find tiers
        // (e.g. `btwc_run deep-chain --uf_threshold 5`) -- an accepted
        // override must never be silently dropped.
        if (b.uf_threshold_set) {
            for (TierSpec &tier : b.spec.tiers.tiers) {
                if (tier.kind == DecoderTier::UnionFind) {
                    tier.escalation_threshold = b.uf_threshold;
                }
            }
        }
        return true;
    }
    TierChainConfig config;
    std::string tier_error;
    if (!TierChainConfig::try_parse(b.tiers, b.uf_threshold, &config,
                                    &tier_error)) {
        set_error(error, "tiers: " + tier_error);
        return false;
    }
    b.spec.tiers = config;
    return true;
}

/**
 * Everything `try_parse` and `apply_flags` check once all keys are
 * in. First ownership: a non-default value for a key the kind never
 * reads is a diagnostic, not a silent no-op. Then the cross-field
 * rules (weighted-matching probabilities, the shared link that faults
 * on an exact fleet need, stream window geometry, stream-tier
 * placement). Keeping them here (not only in the harness) turns a
 * mis-specified scenario into a parse-time diagnostic instead of a
 * CheckFailure mid-run.
 */
bool
finish(SpecBuilder &b, std::string *error)
{
    if (!finish_tiers(b, error)) {
        return false;
    }
    const ScenarioSpec &spec = b.spec;
    for (const Row &row : rows()) {
        if ((row.kinds & kind_bit(spec.kind)) == 0 &&
            !row.codec.is_default(spec, b.uf_threshold)) {
            set_error(error, row.spellings[0] + "= does nothing in kind=" +
                                 scenario_kind_name(spec.kind) +
                                 " scenarios; it is only valid in kind=" +
                                 name_list(kKindNames, row.kinds));
            return false;
        }
    }
    if (spec.weighted_matching) {
        // Log-likelihood weights ln((1 - p) / p) are finite only for
        // channels strictly inside (0, 1).
        const double p = spec.code.p;
        const double p_meas = spec.code.p_meas < 0.0 ? p : spec.code.p_meas;
        if (!(p > 0.0 && p < 1.0) || !(p_meas > 0.0 && p_meas < 1.0)) {
            set_error(error,
                      "weighted matching needs p and p_meas strictly "
                      "inside (0, 1) (log-likelihood weights); got p=" +
                          format_double(p) +
                          ", p_meas=" + format_double(p_meas));
            return false;
        }
    }
    if (spec.service.faults.enabled &&
        spec.kind == ScenarioKind::ExactFleet && !spec.service.shared_link) {
        // The exact fleet injects faults only into its one shared link;
        // a fleet of private links is the fault-free baseline.
        set_error(error,
                  "faults= on kind=exact-fleet needs the shared link (add "
                  "the bare token 'shared'); the per-tenant links of a "
                  "private fleet run fault-free");
        return false;
    }
    if (spec.stream.overlap >= spec.stream.window) {
        set_error(error,
                  "bad stream window geometry: overlap (" +
                      std::to_string(spec.stream.overlap) +
                      ") must be smaller than window (" +
                      std::to_string(spec.stream.window) +
                      ") so the commit region is non-empty");
        return false;
    }
    const bool has_stream = spec.tiers.contains_stream();
    if (spec.kind != ScenarioKind::Stream) {
        if (has_stream) {
            set_error(error,
                      "tier 'stream' is only valid in kind=stream "
                      "scenarios (sliding-window decoding); drop the "
                      "tier or add the bare token 'stream' before "
                      "tiers=");
            return false;
        }
        return true;
    }
    if (!has_stream) {
        // The untouched default chain denotes the bare sliding-window
        // MWPM; any other explicit chain is a mistake.
        if (!same_chain(spec.tiers, default_spec().tiers)) {
            set_error(error,
                      "a kind=stream chain must end with the stream "
                      "tier (e.g. tiers=uf:2,stream)");
            return false;
        }
        return true;
    }
    const std::vector<TierSpec> &tiers = spec.tiers.tiers;
    for (size_t i = 0; i < tiers.size(); ++i) {
        if (tiers[i].kind == DecoderTier::Stream) {
            if (i + 1 != tiers.size()) {
                set_error(error,
                          "the stream tier must be the final tier of "
                          "a kind=stream chain");
                return false;
            }
        } else if (tiers[i].kind != DecoderTier::UnionFind) {
            set_error(error,
                      std::string("kind=stream chains admit only "
                                  "union-find screening tiers before "
                                  "the final stream tier; got '") +
                          decoder_tier_name(tiers[i].kind) + "'");
            return false;
        }
    }
    return true;
}

} // namespace

const char *
scenario_kind_name(ScenarioKind kind)
{
    return name_of(kKindNames, kind);
}

const std::vector<ScenarioKey> &
scenario_keys()
{
    static const std::vector<ScenarioKey> kKeys = [] {
        std::vector<ScenarioKey> keys;
        for (const Row &row : rows()) {
            keys.push_back({row.spellings, row.kinds,
                            (row.traits & kMetricNeutral) != 0});
        }
        return keys;
    }();
    return kKeys;
}

const std::vector<std::string> &
scenario_override_flags()
{
    static const std::vector<std::string> kFlags = [] {
        std::vector<std::string> flags;
        for (const Row &row : rows()) {
            flags.insert(flags.end(), row.spellings.begin(),
                         row.spellings.end());
            if (row.shortcut.token != nullptr) {
                flags.push_back(row.shortcut.token);
            }
        }
        return flags;
    }();
    return kFlags;
}

bool
ScenarioSpec::try_parse(const std::string &spec, ScenarioSpec *out,
                        std::string *error)
{
    SpecBuilder builder;
    bool in_tiers = false;  // a bare tier token continues tiers=
    size_t start = 0;
    while (start < spec.size()) {
        size_t end = spec.find(',', start);
        if (end == std::string::npos) {
            end = spec.size();
        }
        const std::string token = spec.substr(start, end - start);
        start = end + 1;
        if (token.empty()) {
            continue;
        }
        const size_t eq = token.find('=');
        if (eq != std::string::npos) {
            const std::string key = token.substr(0, eq);
            const Row *row = find_row(key);
            if (row == nullptr) {
                set_error(error, "unknown scenario key '" + key +
                                     "' (see src/api/README.md for the "
                                     "grammar)");
                return false;
            }
            if (!apply(*row, key, token.substr(eq + 1), builder, error)) {
                return false;
            }
            in_tiers = (row->traits & kTierList) != 0;
        } else if (in_tiers && is_tier_token(token)) {
            builder.tiers += ',';
            builder.tiers += token;
        } else if (apply_bare(token, builder)) {
            in_tiers = false;
        } else {
            set_error(error,
                      "unknown scenario token '" + token + "' in '" + spec +
                          "'; expected key=value, a bare kind, mode or "
                          "boolean key name, or a tier continuation "
                          "after tiers= (see src/api/README.md)");
            return false;
        }
    }
    if (!finish(builder, error)) {
        return false;
    }
    *out = std::move(builder.spec);
    return true;
}

ScenarioSpec
ScenarioSpec::parse(const std::string &spec)
{
    ScenarioSpec out;
    std::string error;
    if (!try_parse(spec, &out, &error)) {
        throw std::invalid_argument(error);
    }
    return out;
}

std::string
ScenarioSpec::to_string() const
{
    std::string out;
    for (const Row &row : rows()) {
        if (!row.codec.print ||
            row.codec.is_default(*this, kDefaultUfThreshold)) {
            continue;
        }
        if (!out.empty()) {
            out += ',';
        }
        out += row.spellings[0];
        out += '=';
        row.codec.print(*this, out);
    }
    return out;
}

bool
ScenarioSpec::apply_flags(const Flags &flags, std::string *error)
{
    SpecBuilder builder;
    builder.spec = *this;
    for (const Row &row : rows()) {
        for (const std::string &spelling : row.spellings) {
            if (flags.has(spelling) &&
                !apply(row, spelling, flags.get(spelling, ""), builder,
                       error)) {
                return false;
            }
        }
        const char *shortcut = row.shortcut.token;
        if (shortcut != nullptr && flags.has(shortcut) &&
            flags.get_bool(shortcut) &&
            !apply(row, shortcut, row.shortcut.value, builder, error)) {
            return false;
        }
    }
    if (!flags.ok()) {
        set_error(error, flags.error());
        return false;
    }
    if (!finish(builder, error)) {
        return false;
    }
    *this = std::move(builder.spec);
    return true;
}

LifetimeConfig
ScenarioSpec::to_lifetime_config() const
{
    LifetimeConfig config;
    config.distance = code.distance;
    config.p = code.p;
    config.p_meas = code.p_meas;
    if (engine.cycles != 0) {
        config.cycles = engine.cycles;
    }
    config.filter_rounds = code.filter_rounds;
    config.mode = mode;
    config.offchip = service.policy;
    config.offchip_latency = service.latency;
    config.offchip_bandwidth = service.bandwidth;
    config.offchip_batch = service.batch;
    config.tiers = tiers;
    config.threads = engine.threads;
    config.seed = engine.seed;
    return config;
}

MemoryConfig
ScenarioSpec::to_memory_config() const
{
    MemoryConfig config;
    config.distance = code.distance;
    config.p = code.p;
    config.p_meas = code.p_meas;
    if (engine.trials != 0) {
        config.max_trials = engine.trials;
    }
    if (engine.target_failures != 0) {
        config.target_failures = engine.target_failures;
    }
    config.rounds = code.rounds;
    config.filter_rounds = code.filter_rounds;
    config.weighted_matching = weighted_matching;
    config.error_type = code.error_type;
    config.threads = engine.threads;
    config.seed = engine.seed;
    return config;
}

FleetConfig
ScenarioSpec::to_fleet_config() const
{
    FleetConfig config;
    config.num_qubits = service.num_qubits;
    if (engine.cycles != 0) {
        config.cycles = engine.cycles;
    }
    config.offchip_prob = service.offchip_prob;
    if (service.hot_fraction > 0.0) {
        config.qubit_probs =
            hotspot_probs(service.num_qubits, service.offchip_prob,
                          service.hot_fraction, service.hot_mult);
    }
    config.threads = engine.threads;
    config.seed = engine.seed;
    config.offchip_latency = service.latency;
    config.offchip_batch = service.batch;
    return config;
}

StreamConfig
ScenarioSpec::to_stream_config() const
{
    StreamConfig config;
    config.distance = code.distance;
    config.p = code.p;
    config.p_meas = code.p_meas;
    config.window = stream.window;
    config.overlap = stream.overlap;
    if (engine.cycles != 0) {
        config.rounds = engine.cycles;
    }
    config.error_type = code.error_type;
    // The untouched default (legacy) chain denotes the bare
    // sliding-window MWPM (StreamConfig's empty-chain meaning); an
    // explicit stream chain passes through verbatim.
    if (tiers.contains_stream()) {
        config.tiers = tiers;
    }
    config.threads = engine.threads;
    config.seed = engine.seed;
    return config;
}

ExactFleetConfig
ScenarioSpec::to_exact_fleet_config() const
{
    ExactFleetConfig config;
    config.distance = code.distance;
    config.p = code.p;
    config.num_qubits = service.fleet_size;
    if (engine.cycles != 0) {
        config.cycles = engine.cycles;
    }
    config.seed = engine.seed;
    config.threads = engine.threads;
    config.offchip = service.policy;
    config.tiers = tiers;
    config.offchip_latency = service.latency;
    config.offchip_bandwidth = service.bandwidth;
    config.offchip_batch = service.batch;
    // Hot-spot heterogeneity becomes real per-tenant decode work
    // (so hot tenants genuinely contend): the first hot_fraction
    // of the fleet runs at hot_mult * p, like the binomial model's
    // hotspot_probs profile but on the physical error rate.
    if (service.hot_fraction > 0.0) {
        config.tenant_probs =
            hotspot_probs(service.fleet_size, code.p,
                          service.hot_fraction, service.hot_mult);
    }
    return config;
}

FabricFleetConfig
ScenarioSpec::to_fabric_config() const
{
    if (kind == ScenarioKind::ExactFleet) {
        FabricFleetConfig config =
            exact_fleet_fabric(to_exact_fleet_config(), service.shared_link);
        config.faults = service.faults;
        return config;
    }
    FabricFleetConfig config;
    config.fleet = to_exact_fleet_config();
    config.topology.links = service.links;
    config.topology.scheduler = service.scheduler;
    config.topology.placement = service.placement;
    config.topology.deadline = service.deadline;
    config.topology.migrate_threshold = service.migrate;
    config.faults = service.faults;
    config.timeout = service.timeout;
    config.retries = service.retries;
    config.shed = service.shed;
    return config;
}

} // namespace btwc
