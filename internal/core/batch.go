package core

import (
	"sync"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
)

// This file is the batch executor between the QoS scheduler and the
// exec dispatchers. Batching is entirely server-local: the wire protocol
// is untouched, clients see one reply per request, and replies keep their
// per-request sequencing — a batch is just several queued jobs sharing
// one worker's dispatch pass. Cloud-side that pass is one batched trunk
// run (dnn.FeaturesBatch): bit-identical frames share trunk passes and
// distinct frames run the trunk independently; edge-side the members fan
// out concurrently so identical descriptors collapse in the singleflight
// table and the misses arrive at the cloud together — where they batch.
//
// Drain policy: a worker that pops a batchable job first takes every
// compatible job already queued (schedQueue.tryDrain — strictly in
// class-then-EDF order, stopping at the first incompatible head, so
// batching never reorders dispatch). Only a best-effort head then waits,
// up to the deadline-capped slack window, for more arrivals; an
// interactive head never waits — its batch is whatever was already there.

// batchPlan configures batching for one connection. A nil plan (or
// max <= 1) means serial dispatch.
type batchPlan struct {
	max   int           // largest batch a worker may assemble
	slack time.Duration // longest a best-effort head waits for fill
}

// batchPlan returns the server's batching configuration: exec requests
// batch (cloud-side into one FeaturesBatch trunk pass); model/pano
// fetches stay serial.
func (s *ServerCore) batchPlan() *batchPlan {
	if s.Batch <= 1 {
		return nil
	}
	return &batchPlan{max: s.Batch, slack: s.BatchSlack}
}

// execJob is the batch membership test, also what tryDrain matches on.
func execJob(j *schedJob) bool { return j.msg.Type == wire.MsgExec }

// batchable reports whether a job may join a batch on this plan.
func (p *batchPlan) batchable(j *schedJob) bool {
	return p != nil && p.max > 1 && execJob(j)
}

// waitBudget caps the slack window by the head's wall-clock deadline:
// waiting must never turn a live job into a shed one.
func (p *batchPlan) waitBudget(head *schedJob, now time.Time) time.Duration {
	if head.class != wire.QoSBestEffort || p.slack <= 0 {
		return 0
	}
	budget := p.slack
	if !head.deadline.IsZero() {
		if until := head.deadline.Sub(now); until < budget {
			budget = until
		}
	}
	if budget < 0 {
		return 0
	}
	return budget
}

// runBatch dispatches a batch of exec requests through one batched
// recognition pass. Per-member decode failures answer individually —
// one malformed frame must not poison its batchmates.
func (s *CloudServer) runBatch(jobs []schedJob) []reply {
	replies := make([]reply, len(jobs))
	payloads := make([][]byte, 0, len(jobs))
	members := make([]int, 0, len(jobs)) // payloads[n] is jobs[members[n]]'s
	for i, j := range jobs {
		payload, err := recognizePayload(s.Obs, j.msg.Body)
		if err != nil {
			replies[i] = reply{msg: errorReply(j.msg.RequestID, wire.CodeBadRequest, "%v", err)}
			continue
		}
		payloads = append(payloads, payload)
		members = append(members, i)
	}
	if len(members) == 0 {
		return replies
	}
	results, errs, _ := s.Cloud.RecognizeBatch(payloads)
	for n, i := range members {
		id := jobs[i].msg.RequestID
		switch {
		case errs[n] != nil:
			replies[i] = reply{msg: errorReply(id, wire.CodeInternal, "recognize: %v", errs[n])}
		case jobs[i].ctx.Err() != nil:
			replies[i] = reply{msg: errorReply(id, wire.CodeCanceled, "request canceled")}
		default:
			replies[i] = s.packReply(&taskKinds[wire.MsgExec], id, wire.SourceCloud, results[n])
		}
	}
	return replies
}

// runBatch on the edge dispatches the members concurrently: the edge
// runs no DNN, so the win is overlap — cache probes run together,
// identical descriptors coalesce into one upstream fetch via the
// inflight table, and distinct misses reach the cloud as one burst the
// cloud-side batcher can drain into a single FeaturesBatch pass.
func (s *EdgeServer) runBatch(jobs []schedJob) []reply {
	replies := make([]reply, len(jobs))
	if len(jobs) == 1 {
		replies[0] = s.dispatch(jobs[0].ctx, jobs[0].msg, jobs[0].mode, jobs[0].tenant)
		return replies
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = s.dispatch(j.ctx, j.msg, j.mode, j.tenant)
		}()
	}
	wg.Wait()
	return replies
}
