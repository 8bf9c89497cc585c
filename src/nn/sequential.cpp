#include "nn/sequential.hpp"

#include <sstream>

namespace avgpipe::nn {

std::vector<Sequential> Sequential::partition(
    const std::vector<std::size_t>& boundaries) const {
  std::vector<Sequential> stages;
  std::size_t lo = 0;
  for (std::size_t b : boundaries) {
    AVGPIPE_CHECK(b >= lo && b <= layers_.size(),
                  "partition boundary " << b << " out of order");
    stages.push_back(slice(lo, b));
    lo = b;
  }
  stages.push_back(slice(lo, layers_.size()));
  return stages;
}

std::string Sequential::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    os << i << ": " << layers_[i]->name() << '\n';
  }
  return os.str();
}

void copy_parameters(Sequential& src, Sequential& dst) {
  auto values = tensor::values_of(dst.parameters());
  tensor::copy_into(values, tensor::values_of(src.parameters()));
}

}  // namespace avgpipe::nn
