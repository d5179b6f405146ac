// Compatibility alias for code that still spells the JSON namespace
// serve::json (the benchmark sources under perfbench/). The implementation
// lives in util/json.hpp; new code includes that header directly.
#pragma once

#include "util/json.hpp"

namespace mrsc::serve {
namespace json = util::json;
}  // namespace mrsc::serve
