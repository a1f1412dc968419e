package obs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestSchemaVersion pins the artifact schema: bump this test deliberately
// whenever the snapshot layout changes.
func TestSchemaVersion(t *testing.T) {
	if Schema != "nwids.obs.v2" {
		t.Fatalf("schema = %q; if this changed on purpose, update the golden tests too", Schema)
	}
}

// TestWriteOpenMetricsGolden pins the exact OpenMetrics rendering of a
// small registry covering every instrument kind. The output is
// deterministic (sorted families, shortest-round-trip floats), so the
// comparison is byte-for-byte.
func TestWriteOpenMetricsGolden(t *testing.T) {
	vc := NewVirtualClock(time.Unix(10, 0).UTC())
	reg := NewRegistry()
	reg.Counter("shim.processed").Add(42)
	reg.Gauge("node.load.max").Max(1.25)
	for i := 1; i <= 4; i++ {
		reg.Histogram("node.load").Observe(float64(i))
	}
	reg.Timer("lp.solve").ObserveDuration(1500 * time.Millisecond)
	s := reg.Series("emulation.node.0.work_units")
	s.RecordAt(vc.Now(), 10)
	vc.Advance(time.Second)
	s.RecordAt(vc.Now(), 30)

	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, reg.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE nwids_shim_processed counter
nwids_shim_processed_total 42
# TYPE nwids_node_load_max gauge
nwids_node_load_max 1.25
# TYPE nwids_node_load summary
nwids_node_load{quantile="0.5"} 2.5
nwids_node_load{quantile="0.9"} 3.7
nwids_node_load{quantile="0.99"} 3.9699999999999998
nwids_node_load_sum 10
nwids_node_load_count 4
# TYPE nwids_lp_solve_seconds summary
nwids_lp_solve_seconds{quantile="0.5"} 1.5
nwids_lp_solve_seconds{quantile="0.9"} 1.5
nwids_lp_solve_seconds{quantile="0.99"} 1.5
nwids_lp_solve_seconds_sum 1.5
nwids_lp_solve_seconds_count 1
# TYPE nwids_emulation_node_0_work_units gauge
nwids_emulation_node_0_work_units 30
# TYPE nwids_emulation_node_0_work_units_samples counter
nwids_emulation_node_0_work_units_samples_total 2
# EOF
`
	if got := buf.String(); got != want {
		t.Errorf("OpenMetrics rendering changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"lp.solve":          "nwids_lp_solve",
		"node-3/load":       "nwids_node_3_load",
		"already_clean_9":   "nwids_already_clean_9",
		"class.0-1.bytes":   "nwids_class_0_1_bytes",
		"emulation.node.12": "nwids_emulation_node_12",
	} {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestTelemetryMux exercises the HTTP surface: /metrics with the
// OpenMetrics content type and trailing # EOF, and /healthz.
func TestTelemetryMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("shim.seen").Add(7)
	srv := httptest.NewServer(TelemetryMux(reg, func() map[string]any {
		return map[string]any{"run": "test"}
	}))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != OpenMetricsContentType {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "nwids_shim_seen_total 7\n") {
		t.Errorf("/metrics body missing counter:\n%s", body)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("/metrics body does not end with # EOF:\n%s", body)
	}

	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", resp.StatusCode, body)
	}

	// Scrapes are live: a second request sees new observations.
	reg.Counter("shim.seen").Add(1)
	if _, body := get("/metrics"); !strings.Contains(body, "nwids_shim_seen_total 8\n") {
		t.Errorf("second scrape stale:\n%s", body)
	}
}

func TestServeTelemetry(t *testing.T) {
	reg := NewRegistry()
	addr, err := ServeTelemetry("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz over ServeTelemetry = %d", resp.StatusCode)
	}
}
