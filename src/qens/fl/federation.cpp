#include "qens/fl/federation.h"

namespace qens::fl {

Result<Federation> Federation::Create(std::vector<data::Dataset> node_data,
                                      const FederationOptions& options) {
  QENS_ASSIGN_OR_RETURN(std::shared_ptr<Fleet> fleet,
                        Fleet::Create(std::move(node_data), options));
  // The default session: untagged (session_id 0), seeded with the
  // federation seed, sending through the environment-owned network — which
  // makes the facade byte-identical to the historical monolithic loop. It
  // is the one session that fans local training out over its own pool.
  QENS_ASSIGN_OR_RETURN(
      QuerySession session,
      QuerySession::Create(fleet, QuerySessionOptions{},
                           &fleet->environment.network()));
  session.owns_training_pool_ = true;
  return Federation(std::move(fleet), std::move(session));
}

}  // namespace qens::fl
