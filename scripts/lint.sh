#!/usr/bin/env bash
# Run the repository's lint stack exactly as the CI lint/vetsparse jobs do:
#   1. gofmt -l (any file it names fails the run)
#   2. go vet (the standard passes)
#   3. vetsparse (the custom go/analysis suite — determinism, allocfree,
#      protocol, obsnames, locks, leaks — over the packages and their
#      tests; see LINTS.md)
#   4. revive (doc-comment policy, revive.toml)
#   5. staticcheck (staticcheck.conf policy)
# Tools that are not installed locally are skipped with a notice; CI
# installs the pinned versions (see .github/workflows/ci.yml).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  echo "not gofmt-clean:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> vetsparse"
go run ./cmd/vetsparse ./...

if command -v revive >/dev/null 2>&1; then
  echo "==> revive"
  revive -config revive.toml -set_exit_status \
    ./internal/core/... ./internal/solver/... ./internal/obs/... ./internal/trace/...
else
  echo "==> revive not installed; skipping (CI: go install github.com/mgechev/revive@latest)"
fi

if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck"
  staticcheck ./...
else
  echo "==> staticcheck not installed; skipping (CI: go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"
fi

echo "lint OK"
