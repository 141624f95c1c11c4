#!/usr/bin/env bash
# Builds eugenebench from source into the checkout's build directory and
# runs it from the checkout root, passing the arguments through. Every
# file the toolchain writes (build cache, module cache, temporary files,
# its own configuration) is kept inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod
export GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
go build -C cmd/eugenebench -o "$build/eugenebench" .
exec "$build/eugenebench" "$@"
