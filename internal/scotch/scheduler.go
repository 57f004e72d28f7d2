package scotch

import (
	"time"

	"scotch/internal/sim"
)

// job is one unit of controller work paced by a switch's scheduler —
// typically "send one FlowMod to this switch".
type job func()

// fifoItem is one arrival-order queue entry in the FIFO ablation.
// Ingress requests are kept as data (not closures) so the per-port
// accounting is adjusted at pop time, exactly like the priority path
// pops its queue before serving — keeping IngressLen consistent between
// the two modes at every observation point.
type fifoItem struct {
	ingress bool
	port    uint32
	req     *flowReq
	j       job
}

// installScheduler paces the controller's rule installation toward one
// switch at rate R, the maximum loss-free insertion rate of that switch
// (paper §5.2/§6.1), with the paper's three priority classes:
//
//	admitted  — rules for flows admitted elsewhere (highest)
//	migration — large-flow migration path setup
//	ingress   — per-ingress-port queues of new-flow requests, served
//	            round-robin (lowest)
//
// "Such a priority order causes small flows to be forwarded on physical
// paths only after all large flows are accommodated."
type installScheduler struct {
	eng  *sim.Engine
	rate float64
	busy bool

	admitted  []job
	migration []job

	// ingress holds one queue per ingress port with pending requests; a
	// drained port leaves the map, and its emptied slice parks on qPool so
	// the next burst (from any port) starts with capacity instead of a
	// fresh allocation.
	ingress map[uint32][]*flowReq
	qPool   [][]*flowReq
	rrPorts []uint32
	rrIdx   int

	// fifoMode disables the priority classes and per-port round robin:
	// all work is served in arrival order. This exists only for the
	// scheduler ablation; the paper's design is the priority scheduler.
	fifoMode     bool
	fifo         []fifoItem
	ingressCount map[uint32]int

	// serveIngress processes a popped new-flow request; wired to the
	// app's physical-admission path.
	serveIngress func(*flowReq)

	// serveFn is the one closure the pacing loop ever schedules,
	// allocated once here rather than once per served item in kick.
	serveFn func()
}

func newScheduler(eng *sim.Engine, rate float64, serveIngress func(*flowReq)) *installScheduler {
	if rate <= 0 {
		panic("scotch: non-positive install rate")
	}
	s := &installScheduler{
		eng:          eng,
		rate:         rate,
		ingress:      make(map[uint32][]*flowReq),
		ingressCount: make(map[uint32]int),
		serveIngress: serveIngress,
	}
	s.serveFn = func() {
		s.serveOne()
		s.busy = false
		s.kick()
	}
	return s
}

// SubmitAdmitted queues highest-priority work (admitted-flow rules).
func (s *installScheduler) SubmitAdmitted(j job) {
	if s.fifoMode {
		s.fifo = append(s.fifo, fifoItem{j: j})
	} else {
		s.admitted = append(s.admitted, j)
	}
	s.kick()
}

// SubmitMigration queues a large-flow migration step.
func (s *installScheduler) SubmitMigration(j job) {
	if s.fifoMode {
		s.fifo = append(s.fifo, fifoItem{j: j})
	} else {
		s.migration = append(s.migration, j)
	}
	s.kick()
}

// SubmitIngress appends a new-flow request to its ingress-port queue.
func (s *installScheduler) SubmitIngress(port uint32, r *flowReq) {
	if s.fifoMode {
		s.fifo = append(s.fifo, fifoItem{ingress: true, port: port, req: r})
		s.ingressCount[port]++
		s.kick()
		return
	}
	q, ok := s.ingress[port]
	if !ok {
		s.rrPorts = append(s.rrPorts, port)
		if n := len(s.qPool); n > 0 {
			q = s.qPool[n-1]
			s.qPool = s.qPool[:n-1]
		}
	}
	s.ingress[port] = append(q, r)
	s.kick()
}

// IngressLen returns the backlog of one ingress-port queue. In FIFO mode
// the per-port count is tracked at submit and pop, mirroring the
// priority path's queue length; it is never negative.
func (s *installScheduler) IngressLen(port uint32) int {
	if s.fifoMode {
		return s.ingressCount[port]
	}
	return len(s.ingress[port])
}

// TotalBacklog returns all queued work.
func (s *installScheduler) TotalBacklog() int {
	n := len(s.admitted) + len(s.migration) + len(s.fifo)
	for _, q := range s.ingress {
		n += len(q)
	}
	return n
}

// retire removes a drained port's queue from the ingress map and parks
// the emptied slice for reuse. The pool is capped: ports drain one at a
// time, so a handful of spare queues covers any realistic churn.
func (s *installScheduler) retire(port uint32, q []*flowReq) {
	delete(s.ingress, port)
	if cap(q) > 0 && len(s.qPool) < 64 {
		s.qPool = append(s.qPool, q[:0])
	}
}

func (s *installScheduler) kick() {
	if s.busy || s.TotalBacklog() == 0 {
		return
	}
	s.busy = true
	s.eng.Schedule(time.Duration(float64(time.Second)/s.rate), s.serveFn)
}

// serveOne pops one unit of work in priority order (or arrival order in
// FIFO mode).
func (s *installScheduler) serveOne() {
	if s.fifoMode {
		if len(s.fifo) == 0 {
			return
		}
		it := s.fifo[0]
		s.fifo = s.fifo[1:]
		if !it.ingress {
			it.j()
			return
		}
		// Adjust the per-port count at pop time, before serving — the
		// same point where the priority path shortens its queue — and
		// drop zeroed entries so the map stays bounded by the set of
		// ports with backlog.
		if s.ingressCount[it.port]--; s.ingressCount[it.port] <= 0 {
			delete(s.ingressCount, it.port)
		}
		s.serveIngress(it.req)
		return
	}
	if len(s.admitted) > 0 {
		j := s.admitted[0]
		s.admitted = s.admitted[1:]
		j()
		return
	}
	if len(s.migration) > 0 {
		j := s.migration[0]
		s.migration = s.migration[1:]
		j()
		return
	}
	// Round-robin over ingress ports with pending requests. Ports whose
	// queues have drained are compacted out of the ring (and out of the
	// ingress map) rather than skipped, so rrPorts stays bounded by the
	// set of ports with backlog and never scans stale entries; a port
	// that refills re-enters the ring at the tail via SubmitIngress.
	// Queues pop by copy-down (not reslicing) so their full capacity
	// survives to be recycled through qPool when the port drains.
	for len(s.rrPorts) > 0 {
		if s.rrIdx >= len(s.rrPorts) {
			s.rrIdx = 0
		}
		port := s.rrPorts[s.rrIdx]
		q := s.ingress[port]
		if len(q) == 0 {
			// Dead slot: remove it in place; the next port slides into
			// this index, so rrIdx is not advanced.
			s.rrPorts = append(s.rrPorts[:s.rrIdx], s.rrPorts[s.rrIdx+1:]...)
			s.retire(port, q)
			continue
		}
		r := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		q = q[:len(q)-1]
		if len(q) == 0 {
			s.rrPorts = append(s.rrPorts[:s.rrIdx], s.rrPorts[s.rrIdx+1:]...)
			s.retire(port, q)
		} else {
			s.ingress[port] = q
			s.rrIdx++
		}
		s.serveIngress(r)
		return
	}
}
