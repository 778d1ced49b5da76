"""The service checks: shipped reference, warm twin and gamma per job."""

from workloads import Job, service_checks, values_digest


def service_job(kind, job_id, values, served=32):
    job = Job(kind, 0.2, 0.1, values)
    job.extra = {"job_id": job_id, "served": served}
    return job


def test_first_cold_job_is_checked_against_the_shipped_reference():
    jobs = [service_job("cold", 1, [0.5, 0.25]), service_job("warm", 2, [0.5, 0.25])]
    service_checks(jobs, 32, values_digest([0.5, 0.25]))
    assert not any(job.problems for job in jobs)

    # Both twins agree, so only the reference can catch wrong values.
    service_checks(jobs, 32, values_digest([0.5, 0.25 + 1e-15]))
    assert "shipped reference" in jobs[0].problems[0]
    assert not jobs[1].problems


def test_warm_twin_and_gamma_checks():
    jobs = [service_job("cold", 1, [0.5]), service_job("warm", 2, [0.6], served=31)]
    service_checks(jobs, 32, None)
    assert not jobs[0].problems
    assert any("cold twin" in problem for problem in jobs[1].problems)
    assert any("expected gamma=32" in problem for problem in jobs[1].problems)
