#pragma once

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace btwc {

/**
 * Strict full-string numeric parsing, shared by the CLI flag layer
 * (common/flags.cpp) and the scenario grammar (api/scenario.cpp) so
 * "--cycles X" and "cycles=X" can never validate differently.
 *
 * "Strict" means: non-empty, the whole string consumed, and no
 * overflow — strtoll's silent ERANGE saturation would otherwise turn
 * a fat-fingered "cycles=99999999999999999999" into an INT64_MAX-cycle
 * run instead of a diagnostic.
 */
inline bool
parse_i64(const std::string &text, int64_t *out)
{
    if (text.empty()) {
        return false;
    }
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE) {
        return false;
    }
    *out = static_cast<int64_t>(value);
    return true;
}

/**
 * As `parse_i64`, for `int` fields: a value outside `int` is rejected,
 * never narrowed ("d=4294967301" must not run at d=5).
 */
inline bool
parse_int(const std::string &text, int *out)
{
    int64_t value = 0;
    if (!parse_i64(text, &value) || value < INT_MIN || value > INT_MAX) {
        return false;
    }
    *out = static_cast<int>(value);
    return true;
}

/**
 * The one boolean spelling set of the CLI and the scenario grammar:
 * true/1/yes and false/0/no. Anything else returns false with `out`
 * untouched.
 */
inline bool
parse_bool(const std::string &text, bool *out)
{
    if (text == "true" || text == "1" || text == "yes") {
        *out = true;
        return true;
    }
    if (text == "false" || text == "0" || text == "no") {
        *out = false;
        return true;
    }
    return false;
}

/**
 * As `parse_i64` for doubles. Overflow (±HUGE_VAL under ERANGE) is
 * rejected; gradual underflow to a denormal or zero is accepted —
 * tiny probabilities are legitimate inputs.
 */
inline bool
parse_f64(const std::string &text, double *out)
{
    if (text.empty()) {
        return false;
    }
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0') {
        return false;
    }
    if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
        return false;
    }
    *out = value;
    return true;
}

} // namespace btwc
