#include "faults/fault_plan.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace btwc {

namespace {

void
set_error(std::string *error, const std::string &message)
{
    if (error != nullptr) {
        *error = message;
    }
}

/** Split `text` on `sep`, keeping empty fields (they diagnose). */
std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        const size_t end = text.find(sep, start);
        if (end == std::string::npos) {
            out.push_back(text.substr(start));
            return out;
        }
        out.push_back(text.substr(start, end - start));
        start = end + 1;
    }
}

bool
parse_window(const std::string &clause,
             const std::vector<std::string> &fields, uint64_t *period,
             uint64_t *duration, std::string *error)
{
    int64_t p = 0;
    int64_t d = 0;
    if (!parse_i64(fields[1], &p) || p < 1 ||
        !parse_i64(fields[2], &d) || d < 1 || d >= p) {
        set_error(error, "bad fault window '" + clause +
                             "'; expected <period>:<duration> with "
                             "1 <= duration < period");
        return false;
    }
    *period = static_cast<uint64_t>(p);
    *duration = static_cast<uint64_t>(d);
    return true;
}

bool
parse_link_field(const std::string &clause, const std::string &field,
                 int *link, std::string *error)
{
    int k = 0;
    if (!parse_int(field, &k) || k < -1) {
        set_error(error, "bad link index in fault clause '" + clause +
                             "'; expected an int-range integer >= -1 "
                             "(-1 = every link)");
        return false;
    }
    *link = k;
    return true;
}

bool
parse_rate(const std::string &clause, const std::string &field,
           double *rate, std::string *error)
{
    double p = 0.0;
    if (!parse_f64(field, &p) || !(p >= 0.0 && p <= 1.0)) {
        set_error(error, "bad fault probability in '" + clause +
                             "'; expected a value in [0, 1]");
        return false;
    }
    *rate = p;
    return true;
}

/** Whether the recurring window (period, duration) is active. The
 * first window opens at cycle `period`, so a run always has a clean
 * fault-free prefix to establish steady state. */
bool
window_active(uint64_t cycle, uint64_t period, uint64_t duration)
{
    return period > 0 && cycle >= period && cycle % period < duration;
}

/** Round-trip double rendering (cf. api/report.cpp's format_double;
 * re-implemented here because src/faults/ sits below src/api/). */
std::string
format_rate(double v)
{
    char buf[64];
    for (const int precision : {15, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        double back = 0.0;
        if (parse_f64(buf, &back) && back == v) {
            break;
        }
    }
    return buf;
}

} // namespace

bool
FaultPlan::any_faults() const
{
    return !outages.empty() || !spikes.empty() || !surges.empty() ||
           drop > 0.0 || duplicate > 0.0 || corrupt > 0.0;
}

bool
FaultPlan::try_parse(const std::string &text, FaultPlan *out,
                     std::string *error)
{
    FaultPlan plan;
    plan.enabled = true;
    if (text.empty()) {
        set_error(error, "empty faults= plan; use 'none' for the "
                         "explicit zero-fault plan");
        return false;
    }
    for (const std::string &clause : split(text, ';')) {
        const std::vector<std::string> fields = split(clause, ':');
        const std::string &head = fields[0];
        if (head == "none") {
            if (fields.size() != 1) {
                set_error(error, "'none' takes no fields");
                return false;
            }
            continue;
        }
        if (head == "outage") {
            if (fields.size() != 3 && fields.size() != 4) {
                set_error(error,
                          "bad clause '" + clause +
                              "'; expected "
                              "outage:<period>:<duration>[:<link>]");
                return false;
            }
            OutageSpec outage;
            if (!parse_window(clause, fields, &outage.period,
                              &outage.duration, error)) {
                return false;
            }
            if (fields.size() == 4 &&
                !parse_link_field(clause, fields[3], &outage.link,
                                  error)) {
                return false;
            }
            plan.outages.push_back(outage);
            continue;
        }
        if (head == "spike") {
            if (fields.size() != 4 && fields.size() != 5) {
                set_error(
                    error,
                    "bad clause '" + clause +
                        "'; expected "
                        "spike:<period>:<duration>:<extra>[:<link>]");
                return false;
            }
            SpikeSpec spike;
            if (!parse_window(clause, fields, &spike.period,
                              &spike.duration, error)) {
                return false;
            }
            int64_t extra = 0;
            if (!parse_i64(fields[3], &extra) || extra < 1) {
                set_error(error, "bad spike extra latency in '" +
                                     clause +
                                     "'; expected an integer >= 1");
                return false;
            }
            spike.extra = static_cast<uint64_t>(extra);
            if (fields.size() == 5 &&
                !parse_link_field(clause, fields[4], &spike.link,
                                  error)) {
                return false;
            }
            plan.spikes.push_back(spike);
            continue;
        }
        if (head == "drop" || head == "dup" || head == "corrupt") {
            if (fields.size() != 2) {
                set_error(error, "bad clause '" + clause +
                                     "'; expected " + head + ":<p>");
                return false;
            }
            double *rate = head == "drop"
                               ? &plan.drop
                               : (head == "dup" ? &plan.duplicate
                                                : &plan.corrupt);
            if (!parse_rate(clause, fields[1], rate, error)) {
                return false;
            }
            continue;
        }
        if (head == "surge") {
            if (fields.size() != 4 && fields.size() != 5) {
                set_error(
                    error,
                    "bad clause '" + clause +
                        "'; expected "
                        "surge:<period>:<duration>:<count>[:<tenant>]");
                return false;
            }
            SurgeSpec surge;
            if (!parse_window(clause, fields, &surge.period,
                              &surge.duration, error)) {
                return false;
            }
            int64_t count = 0;
            if (!parse_i64(fields[3], &count) || count < 1) {
                set_error(error, "bad surge count in '" + clause +
                                     "'; expected an integer >= 1");
                return false;
            }
            surge.count = static_cast<uint64_t>(count);
            if (fields.size() == 5) {
                if (!parse_int(fields[4], &surge.tenant) ||
                    surge.tenant < 0) {
                    set_error(error,
                              "bad surge tenant in '" + clause +
                                  "'; expected an int-range integer "
                                  ">= 0");
                    return false;
                }
            }
            plan.surges.push_back(surge);
            continue;
        }
        if (head == "fseed") {
            int64_t n = 0;
            if (fields.size() != 2 || !parse_i64(fields[1], &n) ||
                n < 0) {
                set_error(error, "bad clause '" + clause +
                                     "'; expected fseed:<n> with "
                                     "n >= 0");
                return false;
            }
            plan.seed = static_cast<uint64_t>(n);
            continue;
        }
        set_error(error,
                  "unknown fault clause '" + clause +
                      "'; expected outage | spike | drop | dup | "
                      "corrupt | surge | fseed | none "
                      "(see src/api/README.md)");
        return false;
    }
    *out = std::move(plan);
    return true;
}

std::string
FaultPlan::to_string() const
{
    std::string out;
    const auto emit = [&out](const std::string &clause) {
        if (!out.empty()) {
            out += ';';
        }
        out += clause;
    };
    for (const OutageSpec &outage : outages) {
        std::string clause = "outage:" + std::to_string(outage.period) +
                             ':' + std::to_string(outage.duration);
        if (outage.link != -1) {
            clause += ':' + std::to_string(outage.link);
        }
        emit(clause);
    }
    for (const SpikeSpec &spike : spikes) {
        std::string clause = "spike:" + std::to_string(spike.period) +
                             ':' + std::to_string(spike.duration) +
                             ':' + std::to_string(spike.extra);
        if (spike.link != -1) {
            clause += ':' + std::to_string(spike.link);
        }
        emit(clause);
    }
    if (drop > 0.0) {
        emit("drop:" + format_rate(drop));
    }
    if (duplicate > 0.0) {
        emit("dup:" + format_rate(duplicate));
    }
    if (corrupt > 0.0) {
        emit("corrupt:" + format_rate(corrupt));
    }
    for (const SurgeSpec &surge : surges) {
        std::string clause = "surge:" + std::to_string(surge.period) +
                             ':' + std::to_string(surge.duration) +
                             ':' + std::to_string(surge.count);
        if (surge.tenant != 0) {
            clause += ':' + std::to_string(surge.tenant);
        }
        emit(clause);
    }
    if (seed != kDefaultSeed) {
        emit("fseed:" + std::to_string(seed));
    }
    if (out.empty()) {
        out = "none";
    }
    return out;
}

void
FaultPlan::surges_at(uint64_t cycle,
                     std::vector<std::pair<int, uint64_t>> *out) const
{
    for (const SurgeSpec &surge : surges) {
        if (window_active(cycle, surge.period, surge.duration)) {
            out->emplace_back(surge.tenant, surge.count);
        }
    }
}

FaultInjector::FaultInjector(const FaultPlan &plan, int link)
    : plan_(plan), link_(link)
{
    BTWC_CHECK_MSG(link >= 0, "injectors are built per real link");
}

bool
FaultInjector::link_down(uint64_t cycle) const
{
    for (const OutageSpec &outage : plan_.outages) {
        if ((outage.link == -1 || outage.link == link_) &&
            window_active(cycle, outage.period, outage.duration)) {
            return true;
        }
    }
    return false;
}

uint64_t
FaultInjector::extra_latency(uint64_t cycle) const
{
    uint64_t extra = 0;
    for (const SpikeSpec &spike : plan_.spikes) {
        if ((spike.link == -1 || spike.link == link_) &&
            window_active(cycle, spike.period, spike.duration) &&
            spike.extra > extra) {
            extra = spike.extra;
        }
    }
    return extra;
}

bool
FaultInjector::hash_bernoulli(uint64_t salt, uint64_t index,
                              double p) const
{
    if (p <= 0.0) {
        return false;
    }
    const uint64_t key = plan_.seed ^
                         (static_cast<uint64_t>(link_) << 40) ^
                         (salt << 56) ^ index;
    // Top 53 bits -> uniform double in [0, 1), the xoshiro idiom.
    const double u =
        static_cast<double>(fault_mix(key) >> 11) * 0x1.0p-53;
    return u < p;
}

bool
FaultInjector::drop_delivery(uint64_t index) const
{
    return hash_bernoulli(1, index, plan_.drop);
}

bool
FaultInjector::duplicate_delivery(uint64_t index) const
{
    return hash_bernoulli(2, index, plan_.duplicate);
}

bool
FaultInjector::corrupt_delivery(uint64_t index) const
{
    return hash_bernoulli(3, index, plan_.corrupt);
}

int
FaultInjector::corrupt_bit(uint64_t index, int size) const
{
    BTWC_CHECK_MSG(size > 0, "corruption flips a bit of a non-empty "
                             "correction");
    const uint64_t key = plan_.seed ^
                         (static_cast<uint64_t>(link_) << 40) ^
                         (uint64_t{4} << 56) ^ index;
    return static_cast<int>(fault_mix(key) % static_cast<uint64_t>(size));
}

} // namespace btwc
