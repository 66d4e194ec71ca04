package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
)

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("sweep.store.hits").Add(9)
	type progress struct{ Total, Done int64 }
	var calls atomic.Int64
	s, err := Serve("127.0.0.1:0", r, func() any {
		return progress{Total: 10, Done: calls.Add(1)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	var metrics []Metric
	if err := json.Unmarshal(get(t, base+"/metrics"), &metrics); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if len(metrics) != 1 || metrics[0].Name != "sweep.store.hits" || metrics[0].Value != 9 {
		t.Fatalf("/metrics = %+v", metrics)
	}

	// /progress serves what the caller's func returns, asked per request.
	for want := int64(1); want <= 2; want++ {
		var prog progress
		if err := json.Unmarshal(get(t, base+"/progress"), &prog); err != nil {
			t.Fatalf("/progress not JSON: %v", err)
		}
		if prog != (progress{Total: 10, Done: want}) {
			t.Fatalf("/progress = %+v, want done %d", prog, want)
		}
	}

	// expvar carries the published registry under "telemetry".
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get(t, base+"/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["telemetry"]; !ok {
		t.Fatalf("/debug/vars missing telemetry key; got keys %v", keys(vars))
	}

	// pprof index answers (profiles themselves are exercised elsewhere).
	if body := get(t, base+"/debug/pprof/"); len(body) == 0 {
		t.Fatal("/debug/pprof/ empty")
	}
	if body := get(t, base+"/"); len(body) == 0 {
		t.Fatal("index empty")
	}

	// A second Serve must not panic on duplicate expvar publication and
	// must re-point "telemetry" at the new registry.
	r2 := NewRegistry()
	r2.Counter("other").Inc()
	s2, err := Serve("127.0.0.1:0", r2, func() any { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var metrics2 []Metric
	if err := json.Unmarshal(get(t, "http://"+s2.Addr()+"/metrics"), &metrics2); err != nil {
		t.Fatal(err)
	}
	if len(metrics2) != 1 || metrics2[0].Name != "other" {
		t.Fatalf("second server /metrics = %+v", metrics2)
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("127.0.0.1:-1", NewRegistry(), nil); err == nil {
		t.Fatal("expected listener error for invalid address")
	}
}
