// Package loadgen is cloudeval serve's load-generation harness: it
// synthesizes (or replays) a mix of /v1 requests over the benchmark
// corpus, fires them at a target QPS with bounded concurrency through
// the typed client, and reports throughput, latency percentiles and
// error-class counts as a JSON artifact benchguard gates in CI.
//
// The harness is open-loop: a pacer emits operations on the QPS
// schedule regardless of completions, and latency is measured from the
// scheduled emission to the response — so a server that falls behind
// shows up as tail latency, not as a silently slower offered load.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"cloudeval/client"
	"cloudeval/internal/dataset"
	"cloudeval/internal/yamlmatch"
)

// Op is one request of a load trace. Traces serialize as JSONL, one Op
// per line, so recorded workloads replay byte-for-byte.
type Op struct {
	// Op selects the request type: "eval" (a literal answer),
	// "eval_model" (a zoo model's generation), "leaderboard",
	// "families", "stats" or "campaign".
	Op     string `json:"op"`
	Tenant string `json:"tenant,omitempty"`

	Problem string `json:"problem,omitempty"`
	Answer  string `json:"answer,omitempty"`
	Model   string `json:"model,omitempty"`

	Experiments []string `json:"experiments,omitempty"`
}

// Mix weights the synthesized request types; zero-weight types are
// absent from the trace.
type Mix struct {
	Eval        int `json:"eval"`
	EvalModel   int `json:"eval_model"`
	Leaderboard int `json:"leaderboard"`
	Families    int `json:"families"`
	Stats       int `json:"stats"`
	Campaign    int `json:"campaign"`
}

// DefaultMix is an eval-heavy service profile: mostly single-answer
// scoring, some model generations, a trickle of leaderboard (paper and
// per-family), stats and campaign traffic.
func DefaultMix() Mix {
	return Mix{Eval: 70, EvalModel: 10, Leaderboard: 3, Families: 2, Stats: 10, Campaign: 5}
}

func (m Mix) total() int {
	return m.Eval + m.EvalModel + m.Leaderboard + m.Families + m.Stats + m.Campaign
}

// campaignSets are the experiment sets synthesized campaign ops cycle
// through: the cheap static tables, so a campaign op measures the
// admission/checkpoint path rather than re-running the zero-shot study
// per request.
var campaignSets = [][]string{{"table1"}, {"table2"}, {"table7"}, {"table8"}}

// Synthesize builds a deterministic n-op trace over the given corpus
// and models: same seed, same trace. tenants round-robins ops across
// tenant names (nil means every op is the default tenant).
func Synthesize(problems []dataset.Problem, models []string, tenants []string, n int, seed int64, mix Mix) ([]Op, error) {
	if len(problems) == 0 {
		return nil, fmt.Errorf("loadgen: no problems to synthesize over")
	}
	if mix.total() <= 0 {
		return nil, fmt.Errorf("loadgen: mix has no positive weights")
	}
	if mix.EvalModel > 0 && len(models) == 0 {
		return nil, fmt.Errorf("loadgen: eval_model weight without models")
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		var op Op
		w := rng.Intn(mix.total())
		switch {
		case w < mix.Eval:
			p := problems[rng.Intn(len(problems))]
			op = Op{Op: "eval", Problem: p.ID, Answer: yamlmatch.StripLabels(p.ReferenceYAML)}
		case w < mix.Eval+mix.EvalModel:
			p := problems[rng.Intn(len(problems))]
			op = Op{Op: "eval_model", Problem: p.ID, Model: models[rng.Intn(len(models))]}
		case w < mix.Eval+mix.EvalModel+mix.Leaderboard:
			op = Op{Op: "leaderboard"}
		case w < mix.Eval+mix.EvalModel+mix.Leaderboard+mix.Families:
			op = Op{Op: "families"}
		case w < mix.Eval+mix.EvalModel+mix.Leaderboard+mix.Families+mix.Stats:
			op = Op{Op: "stats"}
		default:
			op = Op{Op: "campaign", Experiments: campaignSets[rng.Intn(len(campaignSets))]}
		}
		if len(tenants) > 0 {
			op.Tenant = tenants[i%len(tenants)]
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// WriteTrace serializes ops as JSONL.
func WriteTrace(w io.Writer, ops []Op) error {
	enc := json.NewEncoder(w)
	for _, op := range ops {
		if err := enc.Encode(op); err != nil {
			return err
		}
	}
	return nil
}

// ReadTrace parses a JSONL trace.
func ReadTrace(r io.Reader) ([]Op, error) {
	var ops []Op
	dec := json.NewDecoder(r)
	for {
		var op Op
		if err := dec.Decode(&op); err == io.EOF {
			return ops, nil
		} else if err != nil {
			return nil, fmt.Errorf("loadgen: trace record %d: %w", len(ops)+1, err)
		}
		if op.Op == "" {
			return nil, fmt.Errorf("loadgen: trace record %d has no op", len(ops)+1)
		}
		ops = append(ops, op)
	}
}

// LoadTrace reads a JSONL trace file.
func LoadTrace(path string) ([]Op, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the daemon under load.
	BaseURL string
	// QPS is the offered load; 0 emits as fast as workers drain.
	QPS float64
	// Concurrency is the in-flight request bound (default 1).
	Concurrency int
	// HTTPClient substitutes the transport (optional).
	HTTPClient *http.Client
}

// Latency is the percentile summary, in milliseconds.
type Latency struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// OpStats is one request type's slice of the report.
type OpStats struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors,omitempty"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// Report is the loadgen artifact: the JSON benchguard's latency and
// error-rate gates read.
type Report struct {
	Target      string  `json:"target"`
	Requests    int     `json:"requests"`
	QPSTarget   float64 `json:"qps_target,omitempty"`
	Concurrency int     `json:"concurrency"`

	DurationSec   float64 `json:"duration_sec"`
	ThroughputQPS float64 `json:"throughput_qps"`
	LatencyMs     Latency `json:"latency_ms"`

	// ErrorRate is failed/total; Errors counts each failure class
	// ("rate_limited", "campaign_queue_full", "http_500", "transport",
	// ...).
	ErrorRate float64            `json:"error_rate"`
	Errors    map[string]int     `json:"errors,omitempty"`
	ByOp      map[string]OpStats `json:"by_op,omitempty"`
}

// sample is one completed request's measurement.
type sample struct {
	op       string
	latency  time.Duration
	errClass string // "" on success
}

// Run fires ops at cfg.BaseURL and aggregates the report. The context
// cancels the run early; completed samples still report.
func Run(ctx context.Context, cfg Config, ops []Op) (Report, error) {
	if len(ops) == 0 {
		return Report{}, fmt.Errorf("loadgen: empty op list")
	}
	if cfg.BaseURL == "" {
		return Report{}, fmt.Errorf("loadgen: no target BaseURL")
	}
	concurrency := cfg.Concurrency
	if concurrency <= 0 {
		concurrency = 1
	}

	// One client per tenant: tenancy is a header, and the client is
	// where it lives.
	clients := map[string]*client.Client{}
	clientFor := func(tenant string) *client.Client {
		c, ok := clients[tenant]
		if !ok {
			opts := []client.Option{}
			if tenant != "" {
				opts = append(opts, client.WithTenant(tenant))
			}
			if cfg.HTTPClient != nil {
				opts = append(opts, client.WithHTTPClient(cfg.HTTPClient))
			}
			c = client.New(cfg.BaseURL, opts...)
			clients[tenant] = c
		}
		return c
	}
	for _, op := range ops {
		clientFor(op.Tenant)
	}

	// The pacer stamps each op with its scheduled emission time; the
	// buffered channel means a slow server never slows the offered
	// load, it just grows the tail.
	type job struct {
		op Op
		at time.Time
	}
	jobs := make(chan job, len(ops))
	samples := make([]sample, 0, len(ops))
	var mu sync.Mutex

	var wg sync.WaitGroup
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				errClass := execute(ctx, clientFor(j.op.Tenant), j.op)
				s := sample{op: j.op.Op, latency: time.Since(j.at), errClass: errClass}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}

	start := time.Now()
	var interval time.Duration
	if cfg.QPS > 0 {
		interval = time.Duration(float64(time.Second) / cfg.QPS)
	}
pace:
	for i, op := range ops {
		if interval > 0 && i > 0 {
			next := start.Add(time.Duration(i) * interval)
			if d := time.Until(next); d > 0 {
				select {
				case <-ctx.Done():
					break pace
				case <-time.After(d):
				}
			}
		}
		select {
		case <-ctx.Done():
			break pace
		case jobs <- job{op: op, at: time.Now()}:
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	rep := aggregate(samples, elapsed)
	rep.Target = cfg.BaseURL
	rep.QPSTarget = cfg.QPS
	rep.Concurrency = concurrency
	return rep, nil
}

// execute performs one op and classifies its failure ("" = success).
func execute(ctx context.Context, c *client.Client, op Op) string {
	var err error
	switch op.Op {
	case "eval":
		_, err = c.Eval(ctx, client.EvalRequest{Problem: op.Problem, Answer: op.Answer})
	case "eval_model":
		_, err = c.Eval(ctx, client.EvalRequest{Problem: op.Problem, Model: op.Model})
	case "leaderboard":
		_, err = c.Leaderboard(ctx)
	case "families":
		_, err = c.FamilyLeaderboard(ctx)
	case "stats":
		_, err = c.Stats(ctx)
	case "campaign":
		_, err = c.StartCampaign(ctx, op.Experiments)
	default:
		return "unknown_op"
	}
	return classify(err)
}

func classify(err error) string {
	if err == nil {
		return ""
	}
	if ae, ok := err.(*client.APIError); ok {
		if ae.Code != "" {
			return ae.Code
		}
		return fmt.Sprintf("http_%d", ae.Status)
	}
	return "transport"
}

func aggregate(samples []sample, elapsed time.Duration) Report {
	rep := Report{
		Requests:    len(samples),
		DurationSec: elapsed.Seconds(),
	}
	if len(samples) == 0 {
		return rep
	}
	if rep.DurationSec > 0 {
		rep.ThroughputQPS = float64(len(samples)) / rep.DurationSec
	}

	all := make([]float64, 0, len(samples))
	perOp := map[string][]float64{}
	perOpErr := map[string]int{}
	errs := map[string]int{}
	var sum, max float64
	for _, s := range samples {
		ms := float64(s.latency) / 1e6
		all = append(all, ms)
		perOp[s.op] = append(perOp[s.op], ms)
		sum += ms
		if ms > max {
			max = ms
		}
		if s.errClass != "" {
			errs[s.errClass]++
			perOpErr[s.op]++
		}
	}
	sort.Float64s(all)
	rep.LatencyMs = Latency{
		P50:  percentile(all, 0.50),
		P95:  percentile(all, 0.95),
		P99:  percentile(all, 0.99),
		Mean: sum / float64(len(all)),
		Max:  max,
	}
	var failed int
	for _, n := range errs {
		failed += n
	}
	rep.ErrorRate = float64(failed) / float64(len(samples))
	if len(errs) > 0 {
		rep.Errors = errs
	}
	rep.ByOp = make(map[string]OpStats, len(perOp))
	for op, lats := range perOp {
		sort.Float64s(lats)
		rep.ByOp[op] = OpStats{
			Requests: len(lats),
			Errors:   perOpErr[op],
			P50Ms:    percentile(lats, 0.50),
			P99Ms:    percentile(lats, 0.99),
		}
	}
	return rep
}

// percentile reads q from ascending-sorted values (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted))*q+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WriteReport writes the artifact JSON to path.
func WriteReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
