package main

import (
	"fmt"
	"sort"
	"time"

	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// cohort is one band of the heavy-tailed population: a share of the
// users with a narrow spread of measurement-window lengths. Narrow bands
// keep the total work of a population nearly independent of the seed,
// so run-to-run spread measures the program, not the draw.
type cohort struct {
	share    float64
	meanDays float64
	jitter   float64
	minDays  int
	maxDays  int
	// stagger is how many days the users' end dates spread over, ending
	// at studyDays: long-lived users are still active at the end, short
	// ones come and go across the whole study.
	stagger int
}

// cohorts is ordered from the longest windows down. The top tenth of
// users (the first two bands) hold about half of all GPS points, the
// heavy tail Jurdak et al. report for geosocial activity.
var cohorts = []cohort{
	{share: 0.03, meanDays: 75, jitter: 0.4, minDays: 74, maxDays: 76, stagger: 4},
	{share: 0.07, meanDays: 40, jitter: 0.4, minDays: 39, maxDays: 41, stagger: 45},
	{share: 0.10, meanDays: 20, jitter: 0.4, minDays: 19, maxDays: 21, stagger: 70},
	{share: 0.20, meanDays: 8, jitter: 0.4, minDays: 7, maxDays: 9, stagger: 85},
	{share: 0.60, meanDays: 2, jitter: 0.4, minDays: 1, maxDays: 3, stagger: 95},
}

// studyDays is the length of the simulated study; every user ends by it.
const studyDays = 100

// population is the generated corpus: the dataset plus, per user, the
// index of its cohort.
type population struct {
	ds     *trace.Dataset
	cohort []int // by position in ds.Users
}

// genPopulation generates n users from the seed. Every cohort is drawn
// from the same root stream so all users share one city (the POI table
// is the stream's first split); cohort k's users take the per-user
// streams after those of cohorts 0..k-1, so no two users share a stream.
// IDs are the positions, unique across cohorts.
func genPopulation(seed uint64, n int) (*population, error) {
	pop := &population{ds: &trace.Dataset{Name: "perfbench"}}
	epoch := time.Date(2013, time.January, 14, 0, 0, 0, 0, time.UTC)
	offset := 0
	for k, c := range cohorts {
		count := int(c.share*float64(n) + 0.5)
		if k == len(cohorts)-1 {
			count = n - offset
		}
		cfg := synth.PrimaryConfig()
		cfg.Users = offset + count
		cfg.MeanDays, cfg.DaysJitter, cfg.MinDays, cfg.MaxDays = c.meanDays, c.jitter, c.minDays, c.maxDays
		cfg.StaggerDays = c.stagger
		cfg.Start = epoch.AddDate(0, 0, studyDays-c.maxDays-c.stagger)
		cfg.Parallelism = 0
		ds, err := synth.Generate(cfg, rng.New(seed))
		if err != nil {
			return nil, fmt.Errorf("cohort %d: %w", k, err)
		}
		if pop.ds.POIs == nil {
			pop.ds.POIs = ds.POIs
		}
		for _, u := range ds.Users[offset:] {
			pop.ds.Users = append(pop.ds.Users, u)
			pop.cohort = append(pop.cohort, k)
		}
		offset += count
	}
	return pop, nil
}

// gpsPoints counts the GPS fixes of users.
func gpsPoints(users []*trace.User) int {
	n := 0
	for _, u := range users {
		n += len(u.GPS)
	}
	return n
}

// topDecileShare is the share of all GPS points held by the tenth of
// users with the most points.
func topDecileShare(users []*trace.User) float64 {
	pts := make([]int, len(users))
	total := 0
	for i, u := range users {
		pts[i] = len(u.GPS)
		total += pts[i]
	}
	sort.Sort(sort.Reverse(sort.IntSlice(pts)))
	top := 0
	for _, p := range pts[:(len(pts)+9)/10] {
		top += p
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// lastActivity is the latest GPS fix or checkin time of users.
func lastActivity(users []*trace.User) int64 {
	var maxT int64
	for _, u := range users {
		if n := len(u.GPS); n > 0 && u.GPS[n-1].T > maxT {
			maxT = u.GPS[n-1].T
		}
		if n := len(u.Checkins); n > 0 && u.Checkins[n-1].T > maxT {
			maxT = u.Checkins[n-1].T
		}
	}
	return maxT
}

// nextMidnight is the first UTC midnight strictly after t.
func nextMidnight(t int64) int64 { return (t/86400 + 1) * 86400 }

// window returns the part of u with activity in [from, to): GPS fixes
// and checkins in the interval, Days and Profile unchanged. It returns
// nil when the user has nothing there.
func window(u *trace.User, from, to int64) *trace.User {
	g0 := sort.Search(len(u.GPS), func(i int) bool { return u.GPS[i].T >= from })
	g1 := sort.Search(len(u.GPS), func(i int) bool { return u.GPS[i].T >= to })
	c0 := sort.Search(len(u.Checkins), func(i int) bool { return u.Checkins[i].T >= from })
	c1 := sort.Search(len(u.Checkins), func(i int) bool { return u.Checkins[i].T >= to })
	if g0 == g1 && c0 == c1 {
		return nil
	}
	return &trace.User{ID: u.ID, Profile: u.Profile, Days: u.Days, GPS: u.GPS[g0:g1], Checkins: u.Checkins[c0:c1]}
}

// before is the corpus as it stood at cut: every user's activity before
// it, users with none omitted. Folding the daily windows after cut onto
// it, generation by generation, gives back the later corpus exactly.
func before(users []*trace.User, cut int64) []*trace.User {
	var out []*trace.User
	for _, u := range users {
		if w := window(u, -1<<62, cut); w != nil {
			out = append(out, w)
		}
	}
	return out
}

// dailyDeltas cuts users' activity after base into days consecutive
// one-day windows: deltas[d] holds the users active in day d, in ID
// order.
func dailyDeltas(users []*trace.User, base int64, days int) [][]*trace.User {
	deltas := make([][]*trace.User, days)
	for d := range deltas {
		from, to := base+int64(d)*86400, base+int64(d+1)*86400
		for _, u := range users {
			if w := window(u, from, to); w != nil {
				deltas[d] = append(deltas[d], w)
			}
		}
	}
	return deltas
}
