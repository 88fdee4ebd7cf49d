package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// testServer wires a Funcs backend over an httptest server.
func testServer(t *testing.T, b Backend, info Info) (*Server, *httptest.Server) {
	t.Helper()
	s := &Server{Backend: b, Info: info}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return doc
}

func postJSON(t *testing.T, url, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("POST %s: bad JSON: %v", url, err)
	}
	return doc
}

func TestQueryEndpoints(t *testing.T) {
	var observed []observeReq
	backend := Funcs{
		CountFn:    func() (float64, error) { return 42.5, nil },
		FreqFn:     func(item int64) (float64, error) { return float64(item) * 2, nil },
		RankFn:     func(v float64) (float64, error) { return v + 1, nil },
		QuantileFn: func(phi float64) (float64, error) { return phi * 100, nil },
		ObserveFn: func(site int, item int64, value float64, count int64) error {
			observed = append(observed, observeReq{site, item, value, count})
			return nil
		},
		FlushFn:    func() error { return nil },
		SnapshotFn: func() (Snapshot, error) { return Snapshot{Arrivals: 7, LiveSites: 3}, nil },
	}
	_, ts := testServer(t, backend, Info{Problem: "count", Algorithm: "randomized",
		Transport: "tcp", Topology: "flat", K: 8, Epsilon: 0.1})

	if doc := getJSON(t, ts.URL+"/v1/count", 200); doc["estimate"] != 42.5 {
		t.Errorf("count estimate = %v, want 42.5", doc["estimate"])
	}
	if doc := getJSON(t, ts.URL+"/v1/freq?item=21", 200); doc["estimate"] != 42.0 {
		t.Errorf("freq estimate = %v, want 42", doc["estimate"])
	}
	if doc := getJSON(t, ts.URL+"/v1/rank?value=2.5", 200); doc["rank"] != 3.5 {
		t.Errorf("rank = %v, want 3.5", doc["rank"])
	}
	if doc := getJSON(t, ts.URL+"/v1/quantile?phi=0.5", 200); doc["value"] != 50.0 {
		t.Errorf("quantile value = %v, want 50", doc["value"])
	}
	postJSON(t, ts.URL+"/v1/observe", `{"site":2,"item":9,"value":1.5,"count":4}`, 200)
	postJSON(t, ts.URL+"/v1/observe", `{"site":1}`, 200) // count defaults to 1
	if len(observed) != 2 || observed[0] != (observeReq{2, 9, 1.5, 4}) || observed[1].Count != 1 {
		t.Errorf("observed = %+v", observed)
	}
	postJSON(t, ts.URL+"/v1/flush", ``, 200)

	doc := getJSON(t, ts.URL+"/v1/healthz", 200)
	if doc["status"] != "ok" || doc["problem"] != "count" || doc["k"] != 8.0 ||
		doc["arrivals"] != 7.0 || doc["live_sites"] != 3.0 {
		t.Errorf("healthz = %v", doc)
	}
}

func TestBadParams(t *testing.T) {
	backend := Funcs{
		FreqFn:     func(int64) (float64, error) { return 0, nil },
		RankFn:     func(float64) (float64, error) { return 0, nil },
		QuantileFn: func(float64) (float64, error) { return 0, nil },
		ObserveFn:  func(int, int64, float64, int64) error { return nil },
	}
	_, ts := testServer(t, backend, Info{K: 4})

	getJSON(t, ts.URL+"/v1/freq", 400)                    // missing item
	getJSON(t, ts.URL+"/v1/freq?item=zebra", 400)         // unparseable
	getJSON(t, ts.URL+"/v1/rank", 400)                    // missing value
	getJSON(t, ts.URL+"/v1/rank?value=NaN", 400)          // NaN rejected
	getJSON(t, ts.URL+"/v1/quantile?phi=1.5", 400)        // outside [0,1]
	getJSON(t, ts.URL+"/v1/quantile?phi=oops", 400)       // unparseable
	postJSON(t, ts.URL+"/v1/observe", `{"site":9}`, 400)  // site >= k
	postJSON(t, ts.URL+"/v1/observe", `{"site":-1}`, 400) // negative site
	postJSON(t, ts.URL+"/v1/observe", `{"count":-2}`, 400)
	postJSON(t, ts.URL+"/v1/observe", `{"sight":1}`, 400) // unknown field
	postJSON(t, ts.URL+"/v1/observe", `not json`, 400)
}

func TestErrorMapping(t *testing.T) {
	boom := errors.New("coordinator assembling")
	backend := Funcs{
		CountFn: func() (float64, error) { return 0, boom },
		// FreqFn nil → ErrUnsupported
	}
	_, ts := testServer(t, backend, Info{K: 4})

	getJSON(t, ts.URL+"/v1/count", 503)        // transient backend error
	getJSON(t, ts.URL+"/v1/freq?item=1", 404)  // unsupported for deployment
	getJSON(t, ts.URL+"/v1/rank?value=1", 404) // unsupported
	postJSON(t, ts.URL+"/v1/observe", `{"site":0}`, 404)
	postJSON(t, ts.URL+"/v1/flush", ``, 404)

	// Method enforcement.
	resp, err := http.Post(ts.URL+"/v1/count", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/count: status %d, want 405", resp.StatusCode)
	}
}

// parsePromText checks Prometheus exposition syntax line by line and
// returns the sample values keyed by "name{labels}".
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("bad comment line %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		key, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[key] = v
	}
	return samples
}

func TestMetricsExposition(t *testing.T) {
	snap := Snapshot{
		Arrivals: 1000, MessagesUp: 40, MessagesDown: 12, WordsUp: 80, WordsDown: 24,
		Broadcasts: 3, Dropped: 5, LiveSites: 7, MaxSiteSpace: 9, MaxCoordSpace: 11,
		Snapshots: 2, ReplayedFrames: 13, Resyncs: 1,
		Depth: 2, LevelMessages: [2]int64{30, 10}, LevelWords: [2]int64{60, 20},
		Faults: FaultCounts{Dropped: 4, Retransmits: 6},
	}
	backend := Funcs{SnapshotFn: func() (Snapshot, error) { return snap, nil }}
	_, ts := testServer(t, backend, Info{Problem: "freq", Algorithm: "deterministic",
		Transport: "goroutine", Topology: "tree", K: 16, Epsilon: 0.05})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	samples := parsePromText(t, body)

	want := map[string]float64{
		`disttrack_up`:                               1,
		`disttrack_sites`:                            16,
		`disttrack_epsilon`:                          0.05,
		`disttrack_arrivals_total`:                   1000,
		`disttrack_messages_total{direction="up"}`:   40,
		`disttrack_messages_total{direction="down"}`: 12,
		`disttrack_words_total{direction="up"}`:      80,
		`disttrack_words_total{direction="down"}`:    24,
		`disttrack_broadcasts_total`:                 3,
		`disttrack_dropped_total`:                    5,
		`disttrack_live_sites`:                       7,
		`disttrack_site_space_words_max`:             9,
		`disttrack_coord_space_words_max`:            11,
		`disttrack_snapshots_total`:                  2,
		`disttrack_replayed_frames`:                  13,
		`disttrack_resyncs_total`:                    1,
		`disttrack_tree_depth`:                       2,
		`disttrack_level_messages_total{level="0"}`:  30,
		`disttrack_level_messages_total{level="1"}`:  10,
		`disttrack_level_words_total{level="0"}`:     60,
		`disttrack_level_words_total{level="1"}`:     20,
		`disttrack_faults_total{kind="dropped"}`:     4,
		`disttrack_faults_total{kind="retransmits"}`: 6,
		`disttrack_info{problem="freq",algorithm="deterministic",transport="goroutine",topology="tree"}`: 1,
	}
	for key, v := range want {
		if got, ok := samples[key]; !ok {
			t.Errorf("missing sample %s", key)
		} else if got != v {
			t.Errorf("%s = %g, want %g", key, got, v)
		}
	}

	// Request counters are monotone across scrapes.
	first := samples[`disttrack_http_requests_total{path="/metrics"}`]
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	again := parsePromText(t, readAll(t, resp2))
	if second := again[`disttrack_http_requests_total{path="/metrics"}`]; second <= first {
		t.Errorf("scrape counter not monotone: %g then %g", first, second)
	}
}

func TestMetricsDegradedBackend(t *testing.T) {
	backend := Funcs{SnapshotFn: func() (Snapshot, error) {
		return Snapshot{}, fmt.Errorf("still assembling")
	}}
	_, ts := testServer(t, backend, Info{K: 4})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d during backend outage, want 200", resp.StatusCode)
	}
	samples := parsePromText(t, readAll(t, resp))
	if samples[`disttrack_up`] != 0 {
		t.Errorf("disttrack_up = %g during outage, want 0", samples[`disttrack_up`])
	}
	if _, leaked := samples[`disttrack_arrivals_total`]; leaked {
		t.Error("arrivals exported despite snapshot failure")
	}

	doc := getJSON(t, ts.URL+"/v1/healthz", 200)
	if doc["status"] != "degraded" {
		t.Errorf("healthz status = %v, want degraded", doc["status"])
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
