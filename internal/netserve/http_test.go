package netserve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestHTTPEndpoints(t *testing.T) {
	r := newLoopRig(t, "sr", defaultRig())
	hs := httptest.NewServer(r.ns.Handler())
	defer hs.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz: %d %s", code, body)
	}
	var st status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if st.Scheme != "Streaming RAID" || st.Titles != 2 || st.Burst != 3 {
		t.Errorf("/statusz = %+v", st)
	}

	code, body = get("/titlesz")
	if code != http.StatusOK {
		t.Fatalf("/titlesz: %d %s", code, body)
	}
	var titles []string
	if err := json.Unmarshal(body, &titles); err != nil || len(titles) != 2 || titles[0] != "title0" {
		t.Errorf("/titlesz = %s (err %v)", body, err)
	}

	code, body = get("/metricsz")
	if code != http.StatusOK {
		t.Fatalf("/metricsz: %d", code)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metricsz not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("/metricsz missing %q:\n%s", key, body)
		}
	}

	// Manual mode paces nothing, so the flight recorder is empty.
	code, body = get("/cyclez")
	var cycles []cycleRecord
	if code != http.StatusOK || json.Unmarshal(body, &cycles) != nil || len(cycles) != 0 {
		t.Errorf("/cyclez in manual mode: %d %s, want an empty JSON array", code, body)
	}

	// Admission probe: success, unknown title, wrong method.
	resp, err := http.Post(hs.URL+"/admitz?title=title0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("/admitz title0: %d, want 204", resp.StatusCode)
	}
	resp, err = http.Post(hs.URL+"/admitz?title=no-such", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/admitz no-such: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/admitz?title=title0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /admitz: %d, want 405", resp.StatusCode)
	}
}

// TestHTTPAdmitFull checks the capacity path: a full one-cluster farm
// answers the probe with 503 and a Retry-After hint.
func TestHTTPAdmitFull(t *testing.T) {
	cfg := defaultRig()
	cfg.disks, cfg.cluster, cfg.slotsPerDisk = 5, 5, 1
	r := newLoopRig(t, "sr", cfg)
	c, _ := r.connect(t, r.titles[0]) // occupies the only slot
	defer c.Close()

	hs := httptest.NewServer(r.ns.Handler())
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/admitz?title=title1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/admitz on full farm: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	// Draining refuses the probe outright.
	_ = r.ns.Drain(time.Nanosecond)
	resp2, err := http.Post(hs.URL+"/admitz?title=title1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/admitz while draining: %d, want 503", resp2.StatusCode)
	}
}
