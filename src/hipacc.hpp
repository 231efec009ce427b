// Umbrella public header: everything an application needs to write, compile,
// and run DSL kernels — the DSL classes (Listing 1), the source-to-source
// compiler, its compilation cache and simulated executables, the pipeline
// graph runtime, the built-in operators, and the host-image utilities. Examples and downstream
// code include just this header; the fine-grained headers below remain the
// internal layering (and stay includable individually).
#pragma once

// DSL: Image, Mask, Domain, Accessor, BoundaryCondition, IterationSpace,
// Kernel, reductions.
#include "dsl/accessor.hpp"
#include "dsl/boundary.hpp"
#include "dsl/image.hpp"
#include "dsl/kernel.hpp"
#include "dsl/mask.hpp"
#include "dsl/reduce.hpp"

// Host images: dense storage, synthetic test content, PGM/PPM I/O, metrics.
#include "image/host_image.hpp"
#include "image/io.hpp"
#include "image/metrics.hpp"
#include "image/synthetic.hpp"

// Compiler: driver (Compile), compilation cache, simulated executable,
// kernel-file loading, configuration exploration.
#include "compiler/cache.hpp"
#include "compiler/driver.hpp"
#include "compiler/executable.hpp"
#include "compiler/explore.hpp"
#include "compiler/kernel_file.hpp"

// Runtime: argument binding, consolidated RunOptions, and the pipeline
// graph (DAG scheduling, buffer pooling, point-wise fusion).
#include "runtime/bindings.hpp"
#include "runtime/graph.hpp"
#include "runtime/run_options.hpp"

// Built-in operators: kernel sources, DSL reference classes, masks,
// Laplacian pyramid / multiresolution filtering.
#include "ops/dsl_ops.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "ops/pyramid.hpp"

// Device database for retargeting (TeslaC2050(), FindDevice(), ...).
#include "hwmodel/device_db.hpp"
