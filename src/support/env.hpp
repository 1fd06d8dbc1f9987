#pragma once

#include <string>

/// One place for every environment knob the library honors: the RDV_*
/// deployment knobs (run configuration is rdv_bench's flags alone).
/// Centralizing the parsing keeps the semantics identical across
/// layers (e.g. "any value except empty/0 enables a flag").
namespace rdv::support {

/// True when `name` is set to anything except "" or "0".
[[nodiscard]] bool env_flag(const char* name);

/// The variable's value, or "" when unset.
[[nodiscard]] std::string env_string(const char* name);

/// RDV_STORE_DIR — when nonempty, the global artifact cache attaches a
/// persistent on-disk store rooted there (warm runs skip recomputing
/// every artifact kind, including UXS corpus verification).
[[nodiscard]] std::string rdv_store_dir();

/// RDV_STORE_SALT — overrides the store's build salt (see
/// store::kDefaultBuildSalt); empty means the built-in default.
[[nodiscard]] std::string rdv_store_salt();

/// RDV_STORE_READONLY — serve disk hits but never write (shared or
/// read-only store directories).
[[nodiscard]] bool rdv_store_readonly();

/// Exports `name=value` into this process's environment (CLI flags
/// that are sugar for env knobs, e.g. rdv_bench --store-dir). The one
/// sanctioned write path, for the same reason the readers are
/// centralized: the invariant linter forbids set/putenv elsewhere.
/// Returns false when the underlying setenv fails.
bool env_export(const char* name, const std::string& value);

}  // namespace rdv::support
