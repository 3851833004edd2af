# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples clean check lint lint-diff outputs

all: build test

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/fiber_demo.exe

check:
	dune exec bin/ulp_pip.exe -- check --blts 8 --roundtrips 16

# static analysis: fails on any unwaivered finding, writes LINT.json
lint:
	dune exec bin/ulplint.exe

# the CI baseline gate locally: fails on any finding (warnings too)
# that is new relative to the committed LINT.json
lint-diff:
	cp LINT.json /tmp/lint_baseline.json
	dune exec bin/ulplint.exe -- --diff /tmp/lint_baseline.json

# the artifacts DESIGN.md's process step 6 asks for
outputs:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean
