package alert

import (
	"net/http"
	"sync"

	"grade10/internal/obs"
)

// Metrics exposes the evaluator on a registry: grade10_alerts_firing,
// grade10_alert_events_total, grade10_alert_rules, and ALERTS{alertname,
// severity,alertstate} lifecycle series (value = number of instances of that
// rule in that state). Refresh rebuilds the ALERTS children; the /metrics
// handlers call it before rendering so scrape output tracks the lifecycle.
type Metrics struct {
	ev  *Evaluator
	vec *obs.GaugeVec

	mu   sync.Mutex
	seen map[[3]string]bool
}

// Mount serves ev on s: GET /alerts answers the rule table, live instances
// and transition history (JSON), and with a registry the evaluator's gauges
// and ALERTS series join /metrics, rebuilt on every scrape.
func Mount(s *obs.Surface, ev *Evaluator) {
	s.Handle("/alerts", "alert rules, firing/pending/resolved instances, and history (JSON)",
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { obs.WriteJSON(w, ev.Snapshot()) }))
	if reg := s.Registry(); reg != nil {
		reg.AddScrapeHook(RegisterMetrics(reg, ev).Refresh)
	}
}

// RegisterMetrics wires the evaluator's gauges into the registry.
func RegisterMetrics(reg *obs.Registry, ev *Evaluator) *Metrics {
	m := &Metrics{ev: ev, seen: map[[3]string]bool{}}
	reg.GaugeFunc("grade10_alerts_firing", "Alert instances currently firing.",
		func() float64 { return float64(ev.FiringCount()) })
	reg.GaugeFunc("grade10_alert_events_total", "Lifecycle transitions since start.",
		func() float64 { return float64(ev.EventsTotal()) })
	reg.GaugeFunc("grade10_alert_rules", "Alerting rules loaded.",
		func() float64 { return float64(len(ev.Rules())) })
	m.vec = reg.GaugeVec("ALERTS", "Alert lifecycle series (value = instances of the rule in the state).",
		"alertname", "severity", "alertstate")
	return m
}

// Refresh rebuilds the ALERTS series from the evaluator state, deleting
// series for (rule, state) pairs no longer populated.
func (m *Metrics) Refresh() {
	if m == nil {
		return
	}
	snap := m.ev.Snapshot()
	counts := map[[3]string]int{}
	for _, inst := range snap.Instances {
		counts[[3]string{inst.Rule, string(inst.Severity), string(inst.State)}]++
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.seen {
		if _, live := counts[k]; !live {
			m.vec.Delete(k[0], k[1], k[2])
			delete(m.seen, k)
		}
	}
	for k, n := range counts {
		m.vec.With(k[0], k[1], k[2]).Set(float64(n))
		m.seen[k] = true
	}
}
