// Package pbecc is a from-scratch Go reproduction of "PBE-CC: Congestion
// Control via Endpoint-Centric, Physical-Layer Bandwidth Measurements"
// (Xie, Yi, Jamieson; SIGCOMM 2020).
//
// The paper's contribution - a congestion controller whose mobile client
// decodes the cellular control channel to measure available capacity per
// scheduling interval - lives in internal/core. Everything it depends on
// is built in this module as well: one slot-accurate MAC simulator
// (internal/ran) configured as LTE with carrier aggregation and whole-TB
// HARQ (internal/lte) and as 5G NR with flexible numerology, mmWave
// carriers, code-block-group HARQ and EN-DC dual connectivity
// (internal/nr), a PDCCH blind decoder with
// real channel coding (internal/pdcch), PHY-layer rate/error models and
// the NR numerology tables (internal/phy), a discrete-event engine
// (internal/sim), a wired-network model (internal/netsim), seven baseline
// congestion-control algorithms (internal/cc/...), workload generators
// calibrated to the paper's measurements (internal/trace), and the
// experiment harness regenerating every table and figure of the
// evaluation plus the nr-* 5G scenarios (internal/harness).
//
// The benchmarks in bench_test.go regenerate each experiment; the
// cmd/pbebench tool prints the full row/series output (or JSON with
// -json). See README.md, DESIGN.md and EXPERIMENTS.md.
package pbecc
