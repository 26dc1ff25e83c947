package httpfront

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"monge/internal/obs"
)

func getMetrics(t *testing.T) (*http.Response, string) {
	t.Helper()
	ts, _, _ := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestMetricsExposition pins the Prometheus text format: version 0.0.4
// content type, # TYPE headers with the declared type (counters as
// counter, gauges as gauge), and one monge_<metric>{site="..."} sample
// per site with the exact integer value, zeros included, sites sorted.
func TestMetricsExposition(t *testing.T) {
	old := obs.Global()
	t.Cleanup(func() { obs.SetGlobal(old) })
	o := obs.NewObserver()
	o.Site("kernel").Add(obs.Supersteps, 5)
	o.Site("kernel").Add(obs.QueriesServed, 7)
	o.Site("batch").Add(obs.Supersteps, 11)
	o.Site("batch").Add(obs.ChargedWork, 21000000)
	o.Site("batch").Store(obs.QueueDepth, 3)
	obs.SetGlobal(o)

	resp, body := getMetrics(t)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE monge_supersteps counter\n",
		"monge_supersteps{site=\"kernel\"} 5\n",
		"monge_supersteps{site=\"batch\"} 11\n",
		"# TYPE monge_queries_served counter\n",
		"monge_queries_served{site=\"kernel\"} 7\n",
		"monge_queries_served{site=\"batch\"} 0\n",
		"monge_charged_work{site=\"batch\"} 21000000\n",
		"# TYPE monge_queue_depth gauge\n",
		"monge_queue_depth{site=\"batch\"} 3\n",
		"monge_queue_depth{site=\"kernel\"} 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("body missing %q:\n%s", want, body)
		}
	}
	// Sites under one metric are emitted in sorted order.
	if strings.Index(body, `supersteps{site="batch"}`) > strings.Index(body, `supersteps{site="kernel"}`) {
		t.Errorf("sites not sorted:\n%s", body)
	}
	// Every sample line parses as name{site="..."} value with our prefix.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "monge_") || !strings.Contains(line, `{site="`) {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestMetricsNoObserver: with observability off the endpoint stays a
// valid scrape target — 200 with the right content type and no samples.
func TestMetricsNoObserver(t *testing.T) {
	old := obs.Global()
	t.Cleanup(func() { obs.SetGlobal(old) })
	obs.SetGlobal(nil)

	resp, body := getMetrics(t)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if body != "" {
		t.Fatalf("expected empty body, got %q", body)
	}
}
