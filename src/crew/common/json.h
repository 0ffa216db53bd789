#ifndef CREW_COMMON_JSON_H_
#define CREW_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace crew {

/// Escapes a string for inclusion in a JSON document (quotes, backslashes,
/// control characters). The one escaper every CREW writer uses.
std::string JsonEscape(std::string_view s);

/// `s` escaped and wrapped in double quotes: a complete JSON string.
std::string JsonStr(std::string_view s);

/// Formats a double as a JSON number that round-trips bit-exactly (%.17g).
/// Non-finite values, which JSON cannot represent, degrade to "null";
/// readers map null back to NaN.
std::string JsonDouble(double v);

}  // namespace crew

#endif  // CREW_COMMON_JSON_H_
