package main

import (
	td "repro"
)

// countServer books the work the server did in a timed phase: commit,
// engine and database counters (STATS deltas), cross-lane commits, and the
// server-side handling time of the EXEC and QUERY verbs
// (td_request_latency_us deltas).
func countServer(p *phase, before, after td.ServerStats, promBefore, promAfter map[string]float64) {
	d := func(a, b int64) float64 { return float64(a - b) }
	p.count("commits", d(after.Commits, before.Commits))
	p.count("conflicts", d(after.Conflicts, before.Conflicts))
	p.count("retries", d(after.Retries, before.Retries))
	p.count("fsyncs", d(after.Fsyncs, before.Fsyncs))
	p.count("wal_bytes", d(after.WALBytes, before.WALBytes))
	p.count("cross", promAfter["td_cross_shard_commits_total"]-promBefore["td_cross_shard_commits_total"])
	p.count("steps", d(after.EngineSteps, before.EngineSteps))
	p.count("unifs", d(after.EngineUnifications, before.EngineUnifications))
	p.count("lookups", d(after.DBLookups, before.DBLookups))
	p.count("index_hits", d(after.DBIndexHits, before.DBIndexHits))
	p.count("scans", d(after.DBScans, before.DBScans))
	p.count("plan_hits", d(after.PlanHits, before.PlanHits))
	p.count("memo_hits", d(after.MemoHits, before.MemoHits))
	p.count("memo_misses", d(after.MemoMisses, before.MemoMisses))
	p.count("memo_inval", d(after.MemoInvalidations, before.MemoInvalidations))
	for _, verb := range []string{"EXEC", "QUERY"} {
		us, n := verbLatency(promBefore, promAfter, verb)
		p.count("server_us."+verb, us)
		p.count("server_n."+verb, n)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// classes are the client-observed operation classes: EXEC commits and
// QUERYs on the server workloads, passes over the task list on
// paper-search.
var classes = []string{"commit", "query", "pass"}

// endToEnd computes the end-to-end metrics from a phase: every operation
// class counts as an operation.
func (r *run) endToEnd(p *phase) map[string]metric {
	var all []float64
	for _, c := range classes {
		all = append(all, p.lat[c]...)
	}
	return map[string]metric{
		"setup_s":      {quantile(r.setupS, 0.5), "s"},
		"op_per_s":     {quantile(p.rates, 0.5), "1/s"},
		"op_p50_ms":    {quantile(all, 0.50), "ms"},
		"op_p99_ms":    {quantile(all, 0.99), "ms"},
		"peak_heap_mb": {quantile(p.peakMiB, 0.5), "MiB"},
	}
}

// layers computes every per-layer metric from a phase and the spans of the
// run. A layer the workload does not exercise reads 0. Ratios name their
// base in the metric name (per commit, per op, per query, per task); the
// bases themselves are reported as bench.commits, bench.queries and
// bench.ops.
func (r *run) layers(p *phase, overhead float64) map[string]metric {
	n := func(k string) float64 { return p.n[k] }
	secs := p.measured.Seconds()
	ops := float64(p.ops)
	commits := n("commits")
	queries := n("queries_ok")
	stages := r.tr.stageValues()
	stageMean := func(s string) float64 { return mean(stages[s]) }
	stageP99 := func(s string) float64 { return quantile(stages[s], 0.99) }
	spanMs := func(name string) float64 { return mean(r.tr.durations(name)) / 1e6 }
	clientUs := 1e3 * (sum(p.lat["commit"]) + sum(p.lat["query"]))
	serverUs := n("server_us.EXEC") + n("server_us.QUERY")
	served := n("server_n.EXEC") + n("server_n.QUERY")
	recoveryUs := 1e3 * spanMs("td.NewServer.recovery")
	recoveryRecords := ratio(n("recovery_records"), n("recoveries"))
	engineOps := ops
	if n("engine_tasks") > 0 {
		engineOps = n("engine_tasks")
	}
	m := map[string]metric{
		"client.commit_per_s":  {ratio(commits, secs), "1/s"},
		"client.commit_p50_ms": {quantile(p.lat["commit"], 0.50), "ms"},
		"client.commit_p99_ms": {quantile(p.lat["commit"], 0.99), "ms"},
		"client.query_per_s":   {ratio(queries, secs), "1/s"},
		"client.query_p50_ms":  {quantile(p.lat["query"], 0.50), "ms"},
		"client.query_p99_ms":  {quantile(p.lat["query"], 0.99), "ms"},
		"client.task_per_s":    {ratio(n("tasks"), secs), "1/s"},
		"client.failed_frac":   {ratio(float64(r.out.failed), float64(r.out.attempted)), "1"},

		"server.validate_us":          {stageMean("validate"), "us"},
		"server.apply_us":             {stageMean("apply"), "us"},
		"server.ack_us":               {stageMean("ack"), "us"},
		"server.lane_wait_us_p99":     {stageP99("lane_wait"), "us"},
		"server.query_handle_us":      {ratio(n("server_us.QUERY"), n("server_n.QUERY")), "us"},
		"server.wire_us":              {ratio(clientUs-serverUs, served), "us"},
		"server.conflicts_per_commit": {ratio(n("conflicts"), commits), "1"},
		"server.retries_per_commit":   {ratio(n("retries"), commits), "1"},
		"server.cross_lane_frac":      {ratio(n("cross"), commits), "1"},
		"server.batch_size":           {ratio(commits, n("fsyncs")), "count"},

		"engine.prove_us":                     {stageMean("prove"), "us"},
		"engine.query_prove_us":               {ratio(n("query_prove_us"), n("query_prove_calls")), "us"},
		"engine.memo_hit_ratio":               {ratio(n("memo_hits"), n("memo_hits")+n("memo_misses")), "1"},
		"engine.memo_invalidations_per_query": {ratio(n("memo_inval"), queries), "1"},
		"engine.plan_hits_per_op":             {ratio(n("plan_hits"), ops), "1"},
		"engine.steps_per_op":                 {ratio(n("steps"), engineOps), "1"},
		"engine.unifications_per_op":          {ratio(n("unifs"), engineOps), "1"},
		"engine.loop_hits_per_task":           {ratio(n("loop_hits"), n("engine_tasks")), "1"},
		"engine.table_hits_per_task":          {ratio(n("table_hits"), n("engine_tasks")), "1"},
		"engine.max_depth":                    {float64(p.maxDepth), "count"},
		"engine.prove_ms.twostack":            {spanMs("engine.Prove.twostack"), "ms"},
		"engine.prove_ms.qbf":                 {spanMs("engine.Prove.qbf"), "ms"},
		"engine.prove_ms.sat":                 {spanMs("engine.Prove.sat"), "ms"},

		"db.recovery_s":             {ratio(n("recovery_s"), n("recoveries")), "s"},
		"db.wal_append_us":          {stageMean("wal_append"), "us"},
		"db.fsync_wait_us":          {stageMean("fsync_wait"), "us"},
		"db.fsync_wait_us_p99":      {stageP99("fsync_wait"), "us"},
		"db.fsyncs_per_commit":      {ratio(n("fsyncs"), commits), "1"},
		"db.wal_bytes_per_commit":   {ratio(n("wal_bytes"), commits), "B"},
		"db.recovery_records":       {recoveryRecords, "count"},
		"db.recovery_us_per_record": {ratio(recoveryUs, recoveryRecords), "us"},
		"db.lookups_per_op":         {ratio(n("lookups"), ops), "1"},
		"db.index_hits_per_op":      {ratio(n("index_hits"), ops), "1"},
		"db.scans_per_op":           {ratio(n("scans"), ops), "1"},
		"parser.goal_us":            {stageMean("parse"), "us"},
		"parser.program_ms":         {spanMs("td.Parse"), "ms"},
		"analysis.vet_ms":           {spanMs("td.Vet"), "ms"},
		"analysis.plan_ms":          {spanMs("td.Plan"), "ms"},
		"sim.run_ms":                {spanMs("sim.Run"), "ms"},
		"term.interned_per_op":      {ratio(float64(p.interned), ops), "1"},
		"go.gc_cpu_frac":            {ratio(p.rt.gcCPU, p.rt.totalCPU), "1"},
		"go.alloc_bytes_per_op":     {ratio(float64(p.rt.allocBytes), ops), "B"},
		"go.allocs_per_op":          {ratio(float64(p.rt.allocObjs), ops), "1"},
		"bench.trace_overhead_frac": {overhead, "1"},
		"bench.ops":                 {ops, "count"},
		"bench.commits":             {commits, "count"},
		"bench.queries":             {queries, "count"},
	}
	return m
}
