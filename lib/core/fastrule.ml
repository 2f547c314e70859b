(** FastRule — efficient and scalable flow-entry updates for TCAM-based
    OpenFlow switches (Qiu et al., ICDCS 2018).

    This module is the library's front door: it re-exports every component
    under one namespace, grouped the way the paper presents the system.
    See DESIGN.md for the architecture and EXPERIMENTS.md for the
    reproduction results.

    {1 Quick tour}

    {[
      let table = Fastrule.Dataset.build_table Fastrule.Dataset.ACL4 ~seed:1 ~n:1000 in
      let tcam  = Fastrule.Layout.(place Original) ~tcam_size:2048 ~order:table.order in
      let graph = Fastrule.Graph.copy table.graph in
      let fr    = Fastrule.Greedy.create ~graph ~tcam () in
      (* schedule an insertion between two existing entries ... *)
    ]}

    or drive a whole update stream through {!Firmware}. *)

(** {1 Infrastructure} *)

module Rng = Fr_prng.Rng

(** {1 Match fields and rules} *)

module Ternary = Fr_tern.Ternary
module Header = Fr_tern.Header
module Rule = Fr_tern.Rule
module Range = Fr_tern.Range

(** {1 The dependency graph (policy compiler)} *)

module Graph = Fr_dag.Graph
module Topo = Fr_dag.Topo
module Dag_build = Fr_dag.Build
module Dag_stats = Fr_dag.Stats
module Overlap_index = Fr_dag.Overlap_index

(** {1 Data structures (§IV.E)} *)

module Min_tree = Fr_bitree.Min_tree

(** {1 The TCAM} *)

module Op = Fr_tcam.Op
module Tcam = Fr_tcam.Tcam
module Image = Fr_tcam.Image
module Layout = Fr_tcam.Layout
module Latency = Fr_tcam.Latency
module Defrag = Fr_tcam.Defrag
module Fault = Fr_tcam.Fault
module Deadmap = Fr_tcam.Deadmap

(** {1 Schedulers (§III–§V)} *)

module Algo = Fr_sched.Algo
module Dir = Fr_sched.Dir
module Metric = Fr_sched.Metric
module Store = Fr_sched.Store
module Naive = Fr_sched.Naive
module Ruletris = Fr_sched.Ruletris

module Greedy = Fr_sched.Fastrule
(** The FastRule greedy itself (named [Greedy] here to avoid shadowing this
    facade). *)

module Separated = Fr_sched.Separated
module Check = Fr_sched.Check
module Sabotage = Fr_sched.Sabotage

(** {1 Workloads (§VI.2)} *)

module Profile = Fr_workload.Profile
module Classbench = Fr_workload.Classbench
module Route_gen = Fr_workload.Route_gen
module Dataset = Fr_workload.Dataset
module Updates = Fr_workload.Updates
module Rules_io = Fr_workload.Rules_io
module Zipf = Fr_workload.Zipf

(** {1 Switch firmware and experiments (§VI)} *)

module Measure = Fr_switch.Measure
module Firmware = Fr_switch.Firmware
module Agent = Fr_switch.Agent
module Queue_sim = Fr_switch.Queue_sim
module Experiment = Fr_switch.Experiment
module Report = Fr_switch.Report

(** {1 Resilience (journal, retry, circuit breaker)} *)

module Journal = Fr_resil.Journal
module Backoff = Fr_resil.Backoff
module Breaker = Fr_resil.Breaker

(** {1 Execution (domain pool for parallel drains)} *)

module Pool = Fr_exec.Pool

(** {1 The control plane (sharded multi-agent service)} *)

module Partition = Fr_ctrl.Partition
module Coalesce = Fr_ctrl.Coalesce
module Telemetry = Fr_ctrl.Telemetry
module Shard = Fr_ctrl.Shard
module Ctrl = Fr_ctrl.Service
module Churn = Fr_ctrl.Churn

(** {1 The TCAM-as-cache tier (small TCAM, big software table)} *)

module Cache_backing = Fr_cache.Backing
module Cache_policy = Fr_cache.Policy
module Cache = Fr_cache.Tier
module Cache_driver = Fr_cache.Driver

(** {1 The data plane (wait-free snapshot lookups under update storms)} *)

module Plane_backend = Fr_plane.Backend
module Plane = Fr_plane.Storm

(** {1 Conformance (differential oracle, fault injection)} *)

module Trace = Fr_conform.Trace
module Oracle = Fr_conform.Oracle
module Shrink = Fr_conform.Shrink
module Bundle = Fr_conform.Bundle

(** {1 The fleet (network-wide consistent updates)} *)

module Net_topo = Fr_net.Topo
module Net_policy = Fr_net.Policy
module Net_plan = Fr_net.Plan
module Net_check = Fr_net.Check
module Net_scenario = Fr_net.Scenario
module Net = Fr_net.Fleet
