package scenario

import "dws/internal/sim"

// SimJobs is the per-job log behind Prepared.Sim, by tenant then stream
// index, for the external tests.
func (p *Prepared) SimJobs(opts SimOptions) ([]sim.JobOutcome, error) {
	res, err := p.simReplay(opts)
	if err != nil {
		return nil, err
	}
	return res.Jobs, nil
}
