package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
)

// Exposition renders a registry as OpenMetrics text and serves it over
// HTTP, so a running binary can be scraped mid-run instead of only leaving
// a JSON artifact at exit. The rendering is deterministic: metric families
// are sorted by name and floats use the shortest round-trippable form, so
// a golden test can pin the exact bytes.

// OpenMetricsContentType is the content type served by the /metrics
// endpoint.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// sanitizeMetricName maps a registry instrument name (dotted, free-form)
// to an OpenMetrics metric name: the "nwids_" namespace prefix plus the
// name with every character outside [a-zA-Z0-9_] replaced by '_'.
func sanitizeMetricName(name string) string {
	b := []byte("nwids_" + name)
	for i := 6; i < len(b); i++ {
		c := b[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// fmtFloat renders a float in its shortest round-trippable decimal form.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteOpenMetrics renders a registry snapshot as OpenMetrics text:
// counters as counter families (with the required _total suffix), gauges
// as gauges, histograms and timers as summaries (quantile series plus
// _sum/_count), and each timeline series as a gauge holding its latest
// value plus a _samples_total counter. Ends with the mandatory # EOF.
func WriteOpenMetrics(w io.Writer, snap RegistrySnapshot) error {
	var b []byte
	for _, name := range sortedKeys(snap.Counters) {
		m := sanitizeMetricName(name)
		b = append(b, "# TYPE "+m+" counter\n"...)
		b = append(b, m+"_total "+strconv.FormatUint(snap.Counters[name], 10)+"\n"...)
	}
	for _, name := range sortedKeys(snap.Gauges) {
		m := sanitizeMetricName(name)
		b = append(b, "# TYPE "+m+" gauge\n"...)
		b = append(b, m+" "+fmtFloat(snap.Gauges[name])+"\n"...)
	}
	b = appendSummaries(b, snap.Histograms, "")
	// Timer values are span durations in seconds; suffix the unit per the
	// OpenMetrics naming convention.
	b = appendSummaries(b, snap.Timers, "_seconds")
	for _, name := range sortedKeys(snap.Timeline) {
		s := snap.Timeline[name]
		m := sanitizeMetricName(name)
		if n := len(s.V); n > 0 {
			b = append(b, "# TYPE "+m+" gauge\n"...)
			b = append(b, m+" "+fmtFloat(s.V[n-1])+"\n"...)
		}
		b = append(b, "# TYPE "+m+"_samples counter\n"...)
		b = append(b, m+"_samples_total "+strconv.FormatUint(s.Count, 10)+"\n"...)
	}
	b = append(b, "# EOF\n"...)
	_, err := w.Write(b)
	return err
}

// appendSummaries renders a set of histogram snapshots as OpenMetrics
// summary families.
func appendSummaries(b []byte, hs map[string]HistogramSnapshot, suffix string) []byte {
	for _, name := range sortedKeys(hs) {
		h := hs[name]
		m := sanitizeMetricName(name) + suffix
		b = append(b, "# TYPE "+m+" summary\n"...)
		for _, q := range [...]struct {
			label string
			v     float64
		}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
			b = append(b, m+`{quantile="`+q.label+`"} `+fmtFloat(q.v)+"\n"...)
		}
		b = append(b, m+"_sum "+fmtFloat(h.Sum)+"\n"...)
		b = append(b, m+"_count "+strconv.Itoa(h.Count)+"\n"...)
	}
	return b
}

// TelemetryMux returns an http.Handler exposing the registry: /metrics
// (OpenMetrics text), /healthz (200 "ok"), and the pprof endpoints under
// /debug/pprof/ (the only place the binaries serve pprof). meta, which may
// be nil, is re-evaluated per scrape and attached to the snapshot (the JSON
// meta section does not render in OpenMetrics, but building the snapshot
// through the same path keeps the two exports in lockstep).
func TelemetryMux(reg *Registry, meta func() map[string]any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		var m map[string]any
		if meta != nil {
			m = meta()
		}
		w.Header().Set("Content-Type", OpenMetricsContentType)
		//lint:ignore errdiscard scrape write errors mean the client went away; nothing to do
		WriteOpenMetrics(w, reg.Snapshot(m))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		//lint:ignore errdiscard health-check write errors mean the client went away; nothing to do
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeTelemetry serves TelemetryMux on addr (e.g. "localhost:9090" or
// "127.0.0.1:0") in a background goroutine and returns the bound address.
// The registry keeps updating live; every scrape sees the current snapshot.
func ServeTelemetry(addr string, reg *Registry, meta func() map[string]any) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: telemetry listen: %w", err)
	}
	go http.Serve(ln, TelemetryMux(reg, meta))
	return ln.Addr().String(), nil
}
