#!/usr/bin/env bash
# Docs lint: the byte-level spec in docs/FORMAT.md must agree with the
# code's format constants. Run from the repo root (CI does); fails with a
# message naming every disagreement.
set -euo pipefail

header=src/model/columnar_file.h
spec=docs/FORMAT.md
fail=0

[[ -f "$header" ]] || { echo "missing $header"; exit 1; }
[[ -f "$spec" ]] || { echo "missing $spec"; exit 1; }

# 1. kColumnarFormatVersion (code) == the version marked "current" in the
#    spec's version table.
code_version=$(grep -oE 'kColumnarFormatVersion = [0-9]+' "$header" | grep -oE '[0-9]+')
doc_version=$(grep -E '^\| *[0-9]+ *\| *current *\|' "$spec" | grep -oE '[0-9]+' | head -1)
if [[ -z "$code_version" ]]; then
  echo "FAIL: kColumnarFormatVersion not found in $header"; fail=1
elif [[ -z "$doc_version" ]]; then
  echo "FAIL: no version marked 'current' in $spec version table"; fail=1
elif [[ "$code_version" != "$doc_version" ]]; then
  echo "FAIL: $header says version $code_version but $spec marks $doc_version as current"
  fail=1
else
  echo "OK: format version $code_version agrees between code and spec"
fi

# 2. The magic bytes documented in the spec match the code's constants.
check_magic() {
  local name=$1 doc_hex=$2
  # Extract the initializer list of the constant and normalize to hex.
  local code_hex
  code_hex=$(awk "/$name = \{/,/\};/" "$header" | tr -d '\n' |
    sed -e "s/.*{//" -e "s/}.*//" | tr ',' '\n' |
    sed -e "s/[[:space:]]//g" -e "/^$/d" |
    while read -r tok || [[ -n "$tok" ]]; do
      case "$tok" in
        0x*) printf '%02X ' "$tok" ;;
        \'\\r\') printf '0D ' ;;
        \'\\n\') printf '0A ' ;;
        *) printf '%02X ' "'${tok//\'/}" ;;
      esac
    done)
  code_hex=${code_hex% }
  if ! grep -qF "$doc_hex" "$spec"; then
    echo "FAIL: $spec does not document magic '$doc_hex' for $name"; fail=1
  elif [[ "$code_hex" != "$doc_hex" ]]; then
    echo "FAIL: $name is '$code_hex' in code but '$doc_hex' in $spec"; fail=1
  else
    echo "OK: $name magic $code_hex agrees between code and spec"
  fi
}
check_magic kColumnarMagic "89 4D 50 43 0D 0A 1A 0A"
check_magic kManifestMagic "89 4D 50 4D 0D 0A 1A 0A"

# 3. The injection-point table in docs/ROBUSTNESS.md must agree with the
#    registered points in util/fault.h — both directions.
fault_header=src/util/fault.h
robustness=docs/ROBUSTNESS.md
[[ -f "$fault_header" ]] || { echo "missing $fault_header"; exit 1; }
[[ -f "$robustness" ]] || { echo "missing $robustness"; exit 1; }

# (join lines first: a long constant name may wrap its string literal)
code_points=$(tr '\n' ' ' < "$fault_header" |
  grep -oE 'inline constexpr std::string_view k[A-Za-z]+ =[[:space:]]*"[^"]+"' |
  grep -oE '"[^"]+"' | tr -d '"' | sort)
doc_points=$(grep -oE '^\| `[a-z.]+`' "$robustness" | tr -d '|` ' | sort)

points_ok=1
while read -r point; do
  [[ -z "$point" ]] && continue
  if ! grep -qx "$point" <<<"$doc_points"; then
    echo "FAIL: injection point '$point' ($fault_header) missing from $robustness table"
    fail=1; points_ok=0
  fi
done <<<"$code_points"
while read -r point; do
  [[ -z "$point" ]] && continue
  if ! grep -qx "$point" <<<"$code_points"; then
    echo "FAIL: $robustness documents injection point '$point' not present in $fault_header"
    fail=1; points_ok=0
  fi
done <<<"$doc_points"
if [[ "$points_ok" == 1 ]]; then
  count=$(wc -l <<<"$code_points")
  echo "OK: $count injection points agree between $fault_header and $robustness"
fi

# 4. The SIMD call-site table in docs/PERFORMANCE.md must agree with the
#    actual `#include "util/simd.h"` sites under src/ — both directions.
#    Every file that consumes the shim needs a documented numerical
#    contract; every table row must point at a file that still uses it.
performance=docs/PERFORMANCE.md
[[ -f "$performance" ]] || { echo "missing $performance"; exit 1; }

simd_users=$(grep -rlF '#include "util/simd.h"' src/ --include='*.h' \
  --include='*.cpp' | grep -v '^src/util/simd.h$' | sort)
doc_sites=$(grep -oE '^\| `src/[a-z_/.]+`' "$performance" | tr -d '|` ' | sort)

sites_ok=1
while read -r site; do
  [[ -z "$site" ]] && continue
  if ! grep -qx "$site" <<<"$doc_sites"; then
    echo "FAIL: $site includes util/simd.h but has no contract row in $performance"
    fail=1; sites_ok=0
  fi
done <<<"$simd_users"
while read -r site; do
  [[ -z "$site" ]] && continue
  if ! grep -qx "$site" <<<"$simd_users"; then
    echo "FAIL: $performance documents SIMD call site '$site' which does not include util/simd.h"
    fail=1; sites_ok=0
  fi
done <<<"$doc_sites"
if [[ "$sites_ok" == 1 ]]; then
  count=$(wc -l <<<"$simd_users")
  echo "OK: $count SIMD call sites agree between src/ and $performance"
fi

# 5. The spec-grammar block in docs/FORMAT.md ("Spec strings and chains",
#    the ```grammar fence) must match the grammar comment at the top of
#    util/spec.h — production for production, whitespace-normalized.
spec_header=src/util/spec.h
[[ -f "$spec_header" ]] || { echo "missing $spec_header"; exit 1; }

normalize_grammar() {
  grep -E ':=|^[[:space:]]*\|[[:space:]]' |
    sed -e 's/[[:space:]]\{1,\}/ /g' -e 's/^ //' -e 's/ $//'
}
code_grammar=$(sed -n 's|^// \{0,\}||p' "$spec_header" | normalize_grammar)
doc_grammar=$(awk '/^```grammar$/{f=1;next} /^```$/{f=0} f' "$spec" |
  normalize_grammar)

if [[ -z "$doc_grammar" ]]; then
  echo "FAIL: no \`\`\`grammar block found in $spec"; fail=1
elif [[ "$code_grammar" != "$doc_grammar" ]]; then
  echo "FAIL: spec grammar differs between $spec_header and $spec:"
  diff <(echo "$code_grammar") <(echo "$doc_grammar") | sed 's/^/  /' || true
  fail=1
else
  count=$(wc -l <<<"$code_grammar")
  echo "OK: $count spec-grammar lines agree between $spec_header and $spec"
fi

# 6. The "Spec parameters" table in docs/FORMAT.md must agree with the
#    keys of the parameter tables under src/ (util::Param rows) — both
#    directions.
# (join lines first: a named row may put its key on the next line)
code_keys=$(find src -name '*.h' -o -name '*.cpp' | sort | xargs cat |
  tr '\n' ' ' |
  grep -oE 'util::Param( k[A-Za-z]+)?\{[[:space:]]*"[a-z0-9_]+"' |
  grep -oE '"[a-z0-9_]+"' | tr -d '"' | sort -u)
doc_keys=$(awk '/^## Spec parameters$/{f=1;next} /^## /{f=0} f' "$spec" |
  grep -oE '^\| [a-z0-9_]+ \| `[a-z0-9_]+`' | grep -oE '`[a-z0-9_]+`' |
  tr -d '`' |
  sort -u)

keys_ok=1
if [[ -z "$code_keys" ]]; then
  echo "FAIL: no util::Param rows found under src/"; fail=1; keys_ok=0
fi
while read -r key; do
  [[ -z "$key" ]] && continue
  if ! grep -qx "$key" <<<"$doc_keys"; then
    echo "FAIL: spec key '$key' (a util::Param row under src/) missing from the $spec \"Spec parameters\" table"
    fail=1; keys_ok=0
  fi
done <<<"$code_keys"
while read -r key; do
  [[ -z "$key" ]] && continue
  if ! grep -qx "$key" <<<"$code_keys"; then
    echo "FAIL: $spec documents spec key '$key' that no util::Param row under src/ declares"
    fail=1; keys_ok=0
  fi
done <<<"$doc_keys"
if [[ "$keys_ok" == 1 ]]; then
  count=$(wc -l <<<"$code_keys")
  echo "OK: $count spec keys agree between src/ and $spec"
fi

exit $fail
