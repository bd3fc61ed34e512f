package service

import (
	"grade10/internal/cluster"
	"grade10/internal/enginelog"
	"grade10/internal/fleet"
	"grade10/internal/rundir"
)

// Tap is an in-process run source: a simulator's logger tee sends it every
// event while the simulation runs, and Finish hands over the monitoring and
// ends the run. Its metadata is known before the simulation starts, so the
// run's engine exists before the first event arrives. Register it with
// fleet.Source{Dir: ..., Feed: tap.Feed}.
type Tap struct {
	info       rundir.Info
	events     chan enginelog.Event
	monitoring []cluster.ResourceSamples
	gone       chan struct{} // closed once Feed stops consuming
}

// NewTap returns a tap for a run described by info. The event buffer
// absorbs a superstep's burst of events, so the simulator waits on the
// analysis only when it falls a whole burst behind.
func NewTap(info rundir.Info) *Tap {
	return &Tap{info: info, events: make(chan enginelog.Event, 4096), gone: make(chan struct{})}
}

// Send hands one event to the run, shaped for the engines' Config.Tee hook.
// It blocks while the buffer is full, so ingest never loses an event and a
// slow analysis slows the simulation; once the run has stopped it discards.
func (t *Tap) Send(ev enginelog.Event) {
	select {
	case t.events <- ev:
	case <-t.gone:
	}
}

// Finish ends the event stream and delivers the run's monitoring samples;
// the run then finalizes. Call it once, after the last Send.
func (t *Tap) Finish(monitoring []cluster.ResourceSamples) {
	t.monitoring = monitoring
	close(t.events)
}

// Feed is the tap's fleet.Feed: the metadata first, then every event as it
// is sent, then the monitoring.
func (t *Tap) Feed(stop <-chan struct{}, sink *fleet.Sink) error {
	defer close(t.gone)
	sink.Info(t.info)
	for {
		select {
		case ev, ok := <-t.events:
			if !ok {
				for _, rs := range t.monitoring {
					for _, smp := range rs.Samples.Samples {
						sink.Row(rundir.MonitoringRow{Machine: rs.Machine, Resource: rs.Resource, Capacity: rs.Capacity, Sample: smp})
					}
				}
				return nil
			}
			sink.Event(ev)
		case <-stop:
			return nil
		}
	}
}
