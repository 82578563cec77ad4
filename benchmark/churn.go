package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"
)

// ackedFloor is a price no load vehicle reaches and every churn vehicle
// exceeds: Q-acked filtered on it answers exactly the churn vehicles.
const ackedFloor = (euroHi + churnEuroLo) / 2

// crashAndRecover is the churn workload's epilogue. The daemon is
// killed outright — the crash model its log is built for: one write(2)
// per record, no per-record fsync, so a process kill loses nothing the
// kernel has accepted — and restarted on the same directory. The
// first answer must already show all four facts of every vehicle whose
// /mutate was acknowledged before the kill; then a snapshot is timed.
func crashAndRecover(ctx context.Context, cfg config, st *stage, o *oracle, acked []batch, rep report, res *result) error {
	for _, b := range acked {
		if err := o.add(b); err != nil {
			return err
		}
	}
	want, err := o.expect(tmplAcked, ackedFloor)
	if err != nil {
		return err
	}
	if len(want) != len(acked)*churnBatchVehicles {
		return fmt.Errorf("oracle answers %d acknowledged vehicles, %d were written", len(want), len(acked)*churnBatchVehicles)
	}
	body, _ := json.Marshal(map[string]any{"articulation": "transport", "query": tmplAcked.text(ackedFloor)})

	st.d.kill()
	d, err := startDaemon(cfg.bin, st.dir, st.flags...)
	if err != nil {
		return err
	}
	st.d = d
	if err := d.waitReady(ctx); err != nil {
		return err
	}
	recovered := time.Since(d.spawned)
	var reply queryReply
	q0 := time.Now()
	err = d.call(ctx, http.MethodPost, "/query", body, &reply)
	firstQuery := time.Since(q0)
	res.Attempted++
	if err != nil || !reply.matches(want) {
		res.Failed++
		fmt.Fprintf(os.Stderr, "benchmark: after the restart %d of %d acknowledged vehicles are readable (%v)\n", len(reply.Rows), len(want), err)
	}
	s0 := time.Now()
	if err := d.call(ctx, http.MethodPost, "/snapshot", nil, nil); err != nil {
		return fmt.Errorf("snapshot after recovery: %w", err)
	}
	rep.set("persist.recover_ms", ms(recovered), 1)
	rep.set("persist.first_query_ms", ms(firstQuery), 1)
	rep.set("persist.snapshot_ms", ms(time.Since(s0)), 1)
	return nil
}
