/**
 * @file
 * Thread-local binding of analytic-model telemetry sinks.
 *
 * The closed-form performance models (xeon/timing, piuma/node_model)
 * record each evaluation into an attached telemetry Registry through a
 * file-local pointer. That pointer is thread_local, because sweep
 * points run on pool workers that each own a private Session; a
 * process-global pointer would make model counters race and land in
 * whichever worker's registry bound last.
 *
 * This module is the rendezvous: each model translation unit
 * registers its setter at static-initialisation time, and the sweep
 * machinery calls bindModelTelemetry() on every thread that should
 * record model evaluations (pool workers bind their worker session;
 * the bench main thread binds the caller session). Threads that never
 * bind record nothing, which is the correct default.
 */
#ifndef PGCN_TELEM_MODEL_BIND_HPP
#define PGCN_TELEM_MODEL_BIND_HPP

namespace pgcn::telemetry {

class Registry;

/** A model TU's thread-local sink setter (e.g. setTelemetryRegistry). */
using ModelTelemetryBinder = void (*)(Registry *);

/**
 * Register a model sink setter. Called from namespace-scope
 * initialisers in the model translation units; idempotent per binder.
 *
 * @return true (so registration can seed a namespace-scope constant).
 */
bool registerModelTelemetryBinder(ModelTelemetryBinder binder);

/**
 * Point every registered model at @p registry on the CALLING thread
 * (null detaches). Other threads' bindings are untouched.
 */
void bindModelTelemetry(Registry *registry);

} // namespace pgcn::telemetry

#endif // PGCN_TELEM_MODEL_BIND_HPP
