package loadgen

import (
	"context"
	"errors"
	"time"

	"github.com/joda-explore/betze/internal/obs"
)

// user is one lightweight session state machine: 40 bytes of state, so
// millions of concurrent sessions fit comfortably. The scheduler owns it;
// services only ever see the User view.
type user struct {
	id     int64
	rng    prng
	pool   int32
	idx    int32 // next query ordinal
	total  int32
	preset int8
}

func newUser(cfg Config, id int64) *user {
	u := &user{id: id, rng: newPrng(cfg.Seed, uint64(id))}
	u.preset = int8(u.rng.intn(len(cfg.Mix)))
	u.total = int32(cfg.Mix[u.preset].Queries)
	u.pool = int32((id - 1) % int64(cfg.PoolSize))
	return u
}

func (u *user) view(cfg Config) User {
	return User{ID: u.id, Preset: cfg.Mix[u.preset], Pool: int(u.pool), Query: int(u.idx)}
}

// think draws the user's next think-time gap from the preset's exponential.
func (u *user) think(cfg Config) time.Duration {
	mean := time.Duration(float64(thinkMean(cfg.Mix[u.preset])) * cfg.ThinkScale)
	return u.rng.expDur(mean)
}

func validate(cfg Config) (Config, error) {
	cfg = cfg.withDefaults()
	spec, err := cfg.Arrivals.withDefaults()
	if err != nil {
		return cfg, err
	}
	cfg.Arrivals = spec
	if cfg.Service == nil {
		return cfg, errors.New("loadgen: Config.Service is required")
	}
	if cfg.Sessions <= 0 {
		return cfg, errors.New("loadgen: Config.Sessions must be positive")
	}
	if cfg.Rate <= 0 {
		return cfg, errors.New("loadgen: Config.Rate must be positive")
	}
	return cfg, nil
}

// Simulate runs the open-loop engine in virtual time: a discrete-event loop
// over the arrival/think event heap and a Workers-server FIFO queue. Every
// query is assigned, in due order, to the earliest-free server —
// start = max(due, free) — which is exactly a single FIFO queue in front of
// W servers, so queue waits and completions follow from arrival times and
// service durations alone. Deterministic under Config.Seed: the same
// Config yields a byte-identical Report.
//
// Open-loop accounting: arrivals never slow down; a query due while every
// server is busy waits (counted in the backlog and its own latency), and
// once the backlog holds QueueCap waiting queries, further due queries are
// shed. Latency is always measured from the due instant.
func Simulate(ctx context.Context, cfg Config) (Report, error) {
	cfg, err := validate(cfg)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Rate: cfg.Rate, Arrivals: cfg.Arrivals.Kind}
	lat, qwait := &obs.Histogram{}, &obs.Histogram{}
	backlogGauge := cfg.Obs.Gauge(obs.MLoadBacklog)

	var (
		evs     eventHeap
		servers int64Heap // free-at instant per virtual server
		pending int64Heap // start instants of queries still waiting
		seq     int64
		horizon int64
	)
	push := func(at int64, u *user) {
		seq++
		evs.push(event{at: at, seq: seq, u: u})
	}
	for i := 0; i < cfg.Workers; i++ {
		servers.push(0)
	}
	arr := newArrivals(cfg.Arrivals, cfg.Rate, newPrng(cfg.Seed, 0))
	arrived := 0
	push(arr.next(), nil)

	steps := 0
	for len(evs) > 0 {
		steps++
		if steps&0xfff == 0 {
			select {
			case <-ctx.Done():
				return rep, ctx.Err()
			default:
			}
		}
		e := evs.pop()
		now := e.at
		for len(pending) > 0 && pending.min() <= now {
			pending.pop()
		}
		if e.u == nil {
			// Session arrival: the first query is due immediately; the
			// generator schedules the next arrival regardless of system
			// state (the open loop).
			arrived++
			rep.Sessions++
			push(now, newUser(cfg, int64(arrived)))
			if arrived < cfg.Sessions {
				push(arr.next(), nil)
			}
			continue
		}
		u := e.u
		due := now
		rep.Queries++
		if len(pending) >= cfg.QueueCap {
			rep.Shed++
			u.idx++
			if u.idx < u.total {
				push(due+int64(u.think(cfg)), u)
			}
			continue
		}
		free := servers.pop()
		start := due
		if free > start {
			start = free
		}
		d, serr := cfg.Service(u.view(cfg))
		if d < 0 {
			d = 0
		}
		complete := start + int64(d)
		servers.push(complete)
		if start > due {
			pending.push(start)
			if len(pending) > rep.MaxBacklog {
				rep.MaxBacklog = len(pending)
				backlogGauge.Set(float64(len(pending)))
			}
		}
		if serr != nil {
			rep.Errors++
		} else {
			rep.Completed++
		}
		latency := complete - due
		lat.Record(time.Duration(latency))
		qwait.Record(time.Duration(start - due))
		if cfg.SLO.Late > 0 && latency > int64(cfg.SLO.Late) {
			rep.Late++
		}
		if complete > horizon {
			horizon = complete
		}
		u.idx++
		if u.idx < u.total {
			push(complete+int64(u.think(cfg)), u)
		}
	}
	rep.Horizon = time.Duration(horizon)
	rep.Latency = lat.Snapshot()
	rep.QueueWait = qwait.Snapshot()
	rep.evaluate(cfg.SLO)
	rep.publish(cfg, lat, qwait)
	return rep, nil
}
